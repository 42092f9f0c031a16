#!/usr/bin/env python3
"""Loopback multi-process MUSIC demo (and CI smoke test).

Launches the paper's 3-site deployment as four real processes — three
musicd (one site each: store replica + MUSIC replica over TCP) and one
music_gateway (REST over HTTP) — then drives the Listing 1 flow end to end
over real sockets and asserts a clean SIGTERM shutdown of every process.

Usage: demo_loopback.py [--build-dir BUILD] [--base-port 17400]
Exits 0 on success, 1 with a diagnostic on any failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request


def wait_http(url, timeout_s=20.0):
    deadline = time.monotonic() + timeout_s
    last = None
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(url, timeout=2) as r:
                return r.read()
        except (urllib.error.URLError, ConnectionError, OSError) as e:
            last = e
            time.sleep(0.1)
    raise RuntimeError(f"{url} never came up: {last}")


def post(url, body):
    req = urllib.request.Request(
        url, data=json.dumps(body).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        # Non-2xx still carries a JSON reply (the REST error table at work).
        return e.code, json.loads(e.read())


def expect(cond, what):
    if not cond:
        raise RuntimeError(f"FAILED: {what}")
    print(f"  ok: {what}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--base-port", type=int, default=17400)
    args = ap.parse_args()

    tools = os.path.join(args.build_dir, "tools")
    musicd = os.path.join(tools, "musicd")
    gateway = os.path.join(tools, "music_gateway")
    for exe in (musicd, gateway):
        if not os.path.exists(exe):
            print(f"missing binary {exe}; build the repo first", file=sys.stderr)
            return 1

    bp = args.base_port
    store_ports = f"{bp},{bp + 1},{bp + 2}"
    music_ports = f"{bp + 10},{bp + 11},{bp + 12}"
    http_port = bp + 20
    base = f"http://127.0.0.1:{http_port}"

    procs = []
    logs = []
    try:
        for site in range(3):
            log = open(f"/tmp/musicd{site}.{os.getpid()}.log", "w+b")
            logs.append(log)
            procs.append(subprocess.Popen(
                [musicd, "--site", str(site), "--store-ports", store_ports,
                 "--music-ports", music_ports],
                stderr=log))
        log = open(f"/tmp/music_gateway.{os.getpid()}.log", "w+b")
        logs.append(log)
        procs.append(subprocess.Popen(
            [gateway, "--music-ports", music_ports, "--port", str(http_port)],
            stderr=log))

        print("waiting for gateway ...")
        wait_http(f"{base}/healthz")

        print("Listing 1 over real HTTP:")
        st, r = post(f"{base}/v1/music", {"op": "createLockRef", "key": "demo"})
        expect(st == 200 and r["status"] == "Ok", "createLockRef -> Ok")
        ref = r["lockRef"]

        status = None
        for _ in range(100):
            st, r = post(f"{base}/v1/music",
                         {"op": "acquireLock", "key": "demo", "lockRef": ref})
            status = r["status"]
            if status == "Ok":
                break
            time.sleep(0.05)
        expect(status == "Ok", "acquireLock granted")

        st, r = post(f"{base}/v1/music",
                     {"op": "criticalPut", "key": "demo", "lockRef": ref,
                      "value": "42"})
        expect(st == 200 and r["status"] == "Ok", "criticalPut -> Ok")

        st, r = post(f"{base}/v1/music",
                     {"op": "criticalGet", "key": "demo", "lockRef": ref})
        expect(st == 200 and r.get("value") == "42", "criticalGet reads 42")

        st, r = post(f"{base}/v1/music",
                     {"op": "batch", "key": "demo", "lockRef": ref,
                      "ops": [{"op": "put", "key": "a", "value": "1"},
                              {"op": "get", "key": "a"}]})
        expect(st == 200 and r["results"][1].get("value") == "1",
               "batch put+get round-trips")

        st, r = post(f"{base}/v1/music",
                     {"op": "releaseLock", "key": "demo", "lockRef": ref})
        expect(st == 200 and r["status"] == "Ok", "releaseLock -> Ok")

        # A critical op without the lock crosses the error table: stable
        # code + mapped HTTP status.
        st, r = post(f"{base}/v1/music",
                     {"op": "criticalGet", "key": "demo", "lockRef": ref})
        expect(st == 409 and r["code"] == "not_yet_holder",
               "post-release criticalGet -> 409/not_yet_holder")

        with urllib.request.urlopen(f"{base}/v1/status", timeout=10) as resp:
            s = json.loads(resp.read())
        expect(s["shard_count"] == 1, "status reports deployment shape")

        # The flow above only talks to site 0, so the gateway's hellos to
        # sites 1 and 2 may still be in flight: poll until all 3 are up.
        deadline = time.monotonic() + 10
        while True:
            with urllib.request.urlopen(f"{base}/v1/metrics",
                                        timeout=10) as resp:
                m = json.loads(resp.read())
            peers = m["counters"]["transport.connected_peers"]
            if peers == 3 or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        expect(peers == 3, "gateway connected to all 3 sites")
        expect(m["counters"]["client.attempts"] >= 6, "metrics count attempts")

        print("shutting down ...")
        for p in procs:
            p.send_signal(signal.SIGTERM)
        for p in procs:
            expect(p.wait(timeout=10) == 0, f"pid {p.pid} exited 0")
        for log in logs:
            log.seek(0)
            expect(b"clean shutdown" in log.read(),
                   f"{os.path.basename(log.name)} logged clean shutdown")
        print("PASS")
        return 0
    except Exception as e:  # noqa: BLE001 - top-level diagnostic
        print(f"FAIL: {e}", file=sys.stderr)
        for log in logs:
            log.seek(0)
            sys.stderr.write(f"---- {log.name} ----\n")
            sys.stderr.buffer.write(log.read())
        return 1
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
        for log in logs:
            name = log.name
            log.close()
            try:
                os.unlink(name)
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
