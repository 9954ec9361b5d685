"""Packaging for the Bestavros & Braoudakis 1995 SCC reproduction.

Kept as a plain ``setup.py`` (no ``pyproject.toml`` build-system table) on
purpose: offline boxes without the ``wheel`` package can still run
``pip install -e .`` through the pre-PEP-660 editable path, which removes
the need for a manual ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="scc-repro",
    version="1.0.0",
    description=(
        "Reproduction of Bestavros & Braoudakis, 'Value-cognizant "
        "Speculative Concurrency Control' (VLDB 1995): protocols, "
        "simulator, and the paper's experiment sweeps"
    ),
    long_description=(
        "Discrete-event reproduction of the paper's real-time database "
        "model: SCC-2S/kS/VW speculative concurrency control against "
        "OCC-BC, WAIT-50, and 2PL-PA, with a parallel sweep-execution "
        "subsystem for regenerating Figures 13-15 and the ablations."
    ),
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    # No runtime dependency: workloads draw from repro's own PCG64
    # streams and confidence intervals are pure Python.  numpy and scipy
    # are test oracles only.
    install_requires=[],
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": [
            "scc-experiments = repro.experiments.cli:main",
            # Short alias; `repro run experiment.json` executes a
            # declarative ExperimentSpec (see repro.experiments.spec).
            "repro = repro.experiments.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Database",
        "Topic :: System :: Distributed Computing",
    ],
)
