"""CI smoke check: the experiment gateway end to end, over real HTTP.

Exercises simulation-as-a-service the way the unit suite can't — a real
``repro serve`` subprocess, concurrent clients on real sockets, a real
SIGTERM — and holds it to the determinism bar:

1. **reference** — run the committed ``specs/ci-smoke.json`` grid
   directly (no gateway) into a local store; keep it as the
   bit-exactness reference.
2. **two clients, one grid** — start ``repro serve`` as a subprocess,
   submit the same spec concurrently from two clients.  Both must
   finish ``done``, every fingerprint must be enqueued exactly once
   across the pair (the overlap served cached or shared, visible as
   ``cached=true`` on the follower's event stream), and the gateway
   store must be bit-identical to the direct run.  Re-read once the
   follower has finished, the leader's event stream and ``/results``
   must equal what its client read when the leader finished.  The
   server, having computed that grid, must map no OpenSSL library
   (``libcrypto``/``libssl`` in ``/proc/<pid>/maps``; skipped where
   there is no ``/proc``): fingerprints use the interpreter's built-in
   SHA-256 and experiment ids ``os.urandom``.
3. **no stall** — a spec whose cells could never run (rate 1e-308) is
   refused with 400 at submit.  Then one client submits a spec that
   validates but whose every cell raises in its host (the server
   registers a ``smoke-fails`` protocol family at start-up, which the
   hosts inherit through fork), and a second client submits a valid
   one-cell spec.  The valid experiment must end ``done`` within a
   bounded wait, the failing one ``partial``, and ``/healthz`` must
   carry no ``breaker`` field: a failing cell fails only itself, never
   a host.
4. **host killed mid-cell** — SIGKILL the board host ``/healthz``
   shows holding a slow cell: the cell is recomputed on a replacement
   host and its experiment ends ``done``.
5. **quota rejection** — a greedy client submitting a grid larger than
   ``--max-queued-cells`` gets HTTP 429 and charges nothing.
6. **SIGTERM drain** — with a fresh experiment mid-flight, SIGTERM the
   server: submissions during the drain get an honest 503, the open
   event stream terminates cleanly at ``experiment_interrupted``,
   leased cells persist to the store, and the process exits 0 with no
   process of its group (its keeper and board hosts) left behind.

Usage::

    python scripts/gateway_smoke.py [--spec specs/ci-smoke.json]

Exit codes: 0 OK, 1 mismatch/failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.experiments.spec import ExperimentSpec  # noqa: E402
from repro.gateway import GatewayClient, GatewayError  # noqa: E402
from repro.results import diff_records, open_store  # noqa: E402


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


#: ``repro serve`` with one more protocol family, ``smoke-fails``: it
#: builds, so a spec naming it validates, but every cell it runs raises
#: (in the board host that computes it).
SERVER = """
import sys

from repro.experiments.cli import main
from repro.protocols.registry import ProtocolFamily, register_protocol


def _build():
    from repro.protocols.occ_bc import OCCBroadcastCommit

    class FailsEveryCell(OCCBroadcastCommit):
        def on_arrival(self, txn):
            raise RuntimeError("smoke-fails: this protocol fails every cell")

    return FailsEveryCell()


register_protocol(ProtocolFamily(name="smoke-fails", builder=_build))
sys.exit(main(sys.argv[1:]))
"""


def start_server(workdir: str, store_path: str, port: int,
                 max_queued_cells: int) -> subprocess.Popen:
    # Its own process group, so the final check can find any process of
    # the server's (keeper, hosts) that outlives it.
    return subprocess.Popen(
        [
            sys.executable, "-c", SERVER, "serve",
            "--store", store_path, "--port", str(port), "--workers", "2",
            "--workdir", os.path.join(workdir, "gw-work"),
            "--max-queued-cells", str(max_queued_cells),
        ],
        env={**os.environ,
             "PYTHONPATH": os.path.join(
                 os.path.dirname(__file__), os.pardir, "src"
             ) + os.pathsep + os.environ.get("PYTHONPATH", "")},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )


def group_alive(pgid: int) -> bool:
    """Whether any process of the process group ``pgid`` still exists."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def mapped_openssl(pid: int) -> list:
    """The OpenSSL libraries mapped into process ``pid``."""
    with open(f"/proc/{pid}/maps", encoding="utf-8") as maps:
        return sorted({
            line.split()[-1] for line in maps
            if "libcrypto" in line or "libssl" in line
        })


def wait_finished(client: GatewayClient, experiment: str,
                  deadline: float = 60.0) -> dict:
    """The experiment's status once it leaves ``running``, or at the deadline."""
    end = time.monotonic() + deadline
    status = client.status(experiment)
    while status["status"] == "running" and time.monotonic() < end:
        time.sleep(0.1)
        status = client.status(experiment)
    return status


def wait_healthy(client: GatewayClient, deadline: float = 30.0) -> bool:
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            if client.health().get("status") == "ok":
                return True
        except (OSError, GatewayError):
            time.sleep(0.1)
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--spec",
        default=os.path.join(os.path.dirname(__file__), os.pardir,
                             "specs", "ci-smoke.json"),
    )
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec_dict = json.load(fh)
    workdir = tempfile.mkdtemp(prefix="repro-gateway-smoke-")
    try:
        return smoke(spec_dict, workdir)
    finally:
        # smoke() returns only once the server process has exited.
        shutil.rmtree(workdir, ignore_errors=True)


def smoke(spec_dict: dict, workdir: str) -> int:
    spec = ExperimentSpec.from_dict(spec_dict)
    total = len(spec.protocols) * len(spec.arrival_rates) * spec.replications
    reference_path = os.path.join(workdir, "reference.jsonl")
    gateway_path = os.path.join(workdir, "gateway.sqlite")

    print(f"[1/6] direct reference run ({total} cells, no gateway)...")
    spec.run(store=reference_path)

    port = free_port()
    server = start_server(workdir, gateway_path, port,
                          max_queued_cells=total)
    try:
        alice = GatewayClient(port=port, client_id="alice")
        bob = GatewayClient(port=port, client_id="bob")
        if not wait_healthy(alice):
            return fail("gateway never became healthy")

        print("[2/6] two clients submit the same grid concurrently...")
        finals: dict = {}
        reads: dict = {}

        def submit_and_wait(client: GatewayClient) -> None:
            accepted = client.submit(spec_dict)
            events = list(client.events(accepted["id"]))
            finals[client.client_id] = client.status(accepted["id"])
            reads[accepted["id"]] = (events, client.results(accepted["id"]))

        threads = [threading.Thread(target=submit_and_wait, args=(c,))
                   for c in (alice, bob)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
        if sorted(finals) != ["alice", "bob"]:
            return fail(f"only {sorted(finals)} finished")
        if not all(f["status"] == "done" for f in finals.values()):
            return fail(f"statuses: "
                        f"{ {k: v['status'] for k, v in finals.items()} }")
        enqueued = sum(f["enqueued_cells"] for f in finals.values())
        shared = sum(f["cached_cells"] + f["shared_cells"]
                     for f in finals.values())
        if enqueued != total or shared != total:
            return fail(f"dedup broke: {enqueued} enqueued + {shared} "
                        f"shared/cached across clients (grid is {total})")
        follower = min(finals.values(), key=lambda f: f["enqueued_cells"])
        outcomes = [e for e in alice.events(follower["id"])
                    if e["kind"] == "cell_outcome"]
        if len(outcomes) != total or not all(e["cached"] for e in outcomes):
            return fail("follower stream did not replay every cell as "
                        "cached=true")
        leader = max(finals.values(), key=lambda f: f["enqueued_cells"])
        again = (list(bob.events(leader["id"])), bob.results(leader["id"]))
        if again != reads[leader["id"]]:
            return fail("the finished leader's events or results changed "
                        "between reads")
        with open_store(gateway_path) as gw_store, \
                open_store(reference_path) as ref_store:
            if len(gw_store) != total:
                return fail(f"gateway store kept {len(gw_store)}/{total} "
                            "records (duplicates or losses)")
            report = diff_records(gw_store.records(), ref_store.records())
        if (report["changed"] or report["only_a"] or report["only_b"]
                or report["identical"] != total):
            return fail("gateway results are not bit-identical to the "
                        f"direct run: {len(report['changed'])} changed, "
                        f"{len(report['only_a'])}/{len(report['only_b'])} "
                        "exclusive")
        print(f"      {enqueued} enqueued once, {shared} deduped, all "
              f"{total} records bit-identical to the direct run")
        if os.path.isdir("/proc"):
            openssl = mapped_openssl(server.pid)
            if openssl:
                return fail(f"the server maps OpenSSL: {', '.join(openssl)}")
            print("      the server maps no OpenSSL library")
        else:
            print("      no /proc: OpenSSL map check skipped")

        print("[3/6] one client's failing cells stall no other client...")
        unrunnable = {
            "schema": 1, "protocols": ["scc-2s"], "arrival_rates": [1e-308],
            "num_transactions": 40, "warmup_commits": 4,
        }
        try:
            GatewayClient(port=port, client_id="mallory").submit(unrunnable)
            return fail("a spec whose cells cannot run was admitted")
        except GatewayError as exc:
            if exc.status != 400:
                return fail(f"expected 400 for rate 1e-308, got {exc.status}")
        failing_spec = {
            "schema": 1, "protocols": ["smoke-fails"],
            "arrival_rates": [60.0, 70.0, 80.0], "replications": 2,
            "num_transactions": 40, "warmup_commits": 4,
        }
        valid_spec = {
            "schema": 1, "protocols": ["scc-2s"], "arrival_rates": [60.0],
            "replications": 1, "num_transactions": 40, "warmup_commits": 4,
        }
        mallory = GatewayClient(port=port, client_id="mallory")
        failing = mallory.submit(failing_spec)
        valid = bob.submit(valid_spec)
        final = wait_finished(bob, valid["id"])
        if final["status"] != "done":
            return fail(f"a valid experiment behind failing cells ended "
                        f"{final['status']!r}, not 'done'")
        final = wait_finished(mallory, failing["id"])
        if final["status"] != "partial" or len(final["failed"]) != 6:
            return fail(f"the failing experiment ended {final['status']!r} "
                        f"with {len(final['failed'])}/6 cells failed")
        if "breaker" in alice.health():
            return fail("/healthz still reports a circuit breaker")
        print("      rate 1e-308 refused with 400; 6 failing cells ended "
              "partial; the other client's cell ran to done")

        print("[4/6] a board host SIGKILLed mid-cell is replaced...")
        slow_cell = dict(valid_spec, seed=(spec_dict.get("seed") or 0) + 4,
                         num_transactions=3000)
        accepted = bob.submit(slow_cell)
        end = time.monotonic() + 60
        victim = None
        while victim is None and time.monotonic() < end:
            busy = [h for h in alice.health()["hosts"].values() if h["cell"]]
            if busy:
                victim = busy[0]["pid"]
            else:
                time.sleep(0.02)
        if victim is None:
            return fail("no host held the slow cell within 60s")
        os.kill(victim, signal.SIGKILL)
        final = wait_finished(bob, accepted["id"], deadline=120.0)
        if final["status"] != "done" or final["failed"]:
            return fail(f"the killed host's experiment ended "
                        f"{final['status']!r} with {final['failed']}")
        pids = [h["pid"] for h in alice.health()["hosts"].values()]
        if victim in pids or len(pids) != 2:
            return fail(f"the killed host was not replaced: hosts {pids}")
        print(f"      host {victim} killed mid-cell; its cell was "
              "recomputed on a replacement and the experiment ended done")

        print("[5/6] greedy client over --max-queued-cells gets 429...")
        greedy_spec = dict(spec_dict)
        greedy_spec["seed"] = (spec_dict.get("seed") or 0) + 1  # all-fresh grid
        greedy_spec["replications"] = spec_dict.get("replications", 1) + 1
        try:
            GatewayClient(port=port, client_id="greedy").submit(greedy_spec)
            return fail("over-quota submission was admitted")
        except GatewayError as exc:
            if exc.status != 429:
                return fail(f"expected 429, got {exc.status}")
        print("      429 as expected; other clients were undisturbed")

        print("[6/6] SIGTERM drain with an experiment mid-flight...")
        slow_spec = dict(spec_dict)
        slow_spec["seed"] = (spec_dict.get("seed") or 0) + 2  # fresh cells
        slow_spec["num_transactions"] = 4000
        accepted = alice.submit(slow_spec)
        stream_events: list = []
        streamer = threading.Thread(
            target=lambda: stream_events.extend(
                alice.events(accepted["id"])
            ),
        )
        streamer.start()
        end = time.monotonic() + 60
        while time.monotonic() < end:
            if any(e["kind"] == "cell_started" for e in stream_events):
                break
            time.sleep(0.05)
        else:
            return fail("no cell started within 60s")
        server.send_signal(signal.SIGTERM)
        # The server's main thread handles the signal asynchronously, so a
        # probe sent right away can reach admission first (and meet the
        # queue limit): wait until the server reports the drain, then
        # every submission must get 503.
        end = time.monotonic() + 30
        try:
            while (time.monotonic() < end
                   and alice.health()["status"] != "draining"):
                time.sleep(0.02)
        except OSError:
            return fail("connection refused before the drain was reported")
        got_503 = False
        while time.monotonic() < end and not got_503:
            probe = dict(spec_dict)
            probe["seed"] = (spec_dict.get("seed") or 0) + 3
            try:
                alice.submit(probe)
                time.sleep(0.05)
            except GatewayError as exc:
                if exc.status != 503:
                    return fail(f"expected 503 during drain, "
                                f"got {exc.status}")
                got_503 = True
            except OSError:
                return fail("connection refused during drain "
                            "(listener closed before the drain finished)")
        if not got_503:
            return fail("never observed a 503 during the drain")
        streamer.join(120)
        if streamer.is_alive():
            return fail("event stream did not terminate after the drain")
        if (not stream_events
                or stream_events[-1]["kind"] != "experiment_interrupted"):
            return fail("open stream did not end at experiment_interrupted")
        code = server.wait(timeout=120)
        if code != 0:
            return fail(f"server exited {code} after SIGTERM")
        end = time.monotonic() + 5
        while group_alive(server.pid) and time.monotonic() < end:
            time.sleep(0.05)
        if group_alive(server.pid):
            return fail("a process of the server's group (its keeper or a "
                        "board host) outlived the server")
        completed = sum(
            1 for e in stream_events if e["kind"] == "cell_outcome"
        )
        with open_store(gateway_path) as store:
            persisted = len(store)
        if persisted < total + completed:
            return fail(f"store kept {persisted} records; expected the "
                        f"{total}-cell grid plus {completed} leased cells "
                        "finished during the drain")
        print(f"      503 during drain, {completed} leased cells persisted, "
              "stream closed at experiment_interrupted, exit 0, no "
              "process of its group left")
    finally:
        if group_alive(server.pid):
            os.killpg(server.pid, signal.SIGKILL)
        server.wait()
        out = (server.stdout.read() or "") if server.stdout else ""
        errors = [line for line in out.splitlines()
                  if "Traceback" in line or "ERROR" in line]
        if errors:
            print("server log errors:", *errors, sep="\n  ", file=sys.stderr)
            return 1

    print("OK: deduped, bit-identical, never stalled, survived a killed "
          "host, quota-limited, drained cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
