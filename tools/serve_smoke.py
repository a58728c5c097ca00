#!/usr/bin/env python3
"""Round-trip smoke for the hybridic_serve JSON-lines front end.

Starts the server, walks one request through every branch of the error
taxonomy — served, usage, config, timeout (quarantined) — checks the
stats counters, checks determinism (the same request twice yields the
same bytes), and verifies the orderly EOF shutdown (exit 0). A second
session sends hostile lines: numbers outside the JSON grammar or outside
a field's range, duplicate keys, unknown escapes, raw control bytes and
configs above the generator's bounds. Each must get its documented
error, and every reply to a line that parses must echo the line's id.

Usage: python3 tools/serve_smoke.py /path/to/hybridic_serve
"""

import json
import os
import subprocess
import sys


def check(condition, message):
    if not condition:
        print("FAIL: " + message, file=sys.stderr)
        sys.exit(1)


def main():
    if len(sys.argv) != 2:
        print("usage: serve_smoke.py /path/to/hybridic_serve",
              file=sys.stderr)
        return 2
    binary = os.path.abspath(sys.argv[1])

    requests = [
        {"id": "ok-1", "seed": 5, "kernels": 4},
        {"id": "ok-1-again", "seed": 5, "kernels": 4},
        {"id": "bad-key", "seed": 5, "bogus": 1},
        {"id": "bad-config", "kernels": 0},
        {"id": "wedged", "kernels": 8, "tier": "cycle",
         "timeout_s": 0.0001},
        {"id": "stats", "op": "stats"},
    ]
    stdin = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run([binary], input=stdin, capture_output=True,
                          text=True, timeout=600)
    check(proc.returncode == 0,
          "serve exit {} != 0 on EOF: {}".format(proc.returncode,
                                                 proc.stderr))
    lines = proc.stdout.splitlines()
    check(len(lines) == len(requests),
          "expected {} responses, got {}".format(len(requests), len(lines)))
    replies = [json.loads(line) for line in lines]

    ok = replies[0]
    check(ok["id"] == "ok-1" and ok["ok"] is True,
          "design request failed: " + lines[0])
    check("analytic_designed_s" in ok and "solution" in ok,
          "design response missing fields: " + lines[0])

    # Determinism: identical config, identical numbers (only the echoed
    # id differs).
    again = dict(replies[1])
    check(again.pop("id") == "ok-1-again", "bad echo on second request")
    first = dict(replies[0])
    first.pop("id")
    check(first == again, "same request produced different responses:\n"
          + lines[0] + "\n" + lines[1])

    usage = replies[2]
    check(usage["ok"] is False and usage["error"] == "usage"
          and usage["exit_code"] == 2,
          "unknown key not a usage error: " + lines[2])

    config = replies[3]
    check(config["ok"] is False and config["error"] == "config"
          and config["exit_code"] == 3,
          "kernels=0 not a config error: " + lines[3])

    wedged = replies[4]
    check(wedged["ok"] is False and wedged["error"] == "timeout"
          and wedged["exit_code"] == 4,
          "expired watchdog not a timeout error: " + lines[4])
    check("watchdog" in wedged["message"],
          "timeout message does not name the watchdog: " + lines[4])

    stats = replies[5]
    check(stats["ok"] is True and stats["requests"] == 6
          and stats["served"] == 3 and stats["failed"] == 2
          and stats["quarantined"] == 1,
          "counter mismatch: " + lines[5])

    check("eof shutdown" in proc.stderr,
          "missing shutdown summary on stderr: " + proc.stderr)

    check_hostile(binary)
    print("serve_smoke: all tests passed")
    return 0


# (raw request line, expected id echo, expected error class). Lines that
# are not JSON at all cannot name their id, so they echo "".
HOSTILE = [
    ('{"id":"neg-seed","seed":-1}', "neg-seed", "usage"),
    ('{"id":"plus-seed","seed":+7}', "", "usage"),
    ('{"id":"frac-kernels","kernels":1.9}', "frac-kernels", "usage"),
    ('{"id":"wide-kernels","kernels":4294967297}', "wide-kernels", "usage"),
    ('{"id":"bare-exp","kernels":1e}', "", "usage"),
    ('{"id":"bare-minus","kernels":-}', "", "usage"),
    ('{"id":"huge-seed","seed":99999999999999999999}', "huge-seed", "usage"),
    ('{"id":"neg-bytes","min_edge_bytes":-1,"max_edge_bytes":-1}',
     "neg-bytes", "usage"),
    ('{"id":"tiny-p","edge_p":1e-400}', "tiny-p", "usage"),
    ('{"edge_p":1e-400,"id":"tiny-p-first"}', "tiny-p-first", "usage"),
    ('{"id":"quoted-seed","seed":"5"}', "quoted-seed", "usage"),
    ('{"id":"dup","seed":1,"seed":2}', "", "usage"),
    ('{"id":"slash","board_topology":"ring\\/"}', "", "usage"),
    ('{"id":"ctl","board_topology":"ri\\u0007ng"}', "ctl", "usage"),
    ('{"id":"raw-ctl\x01"}', "", "usage"),
    ('{"id":"nested","seed":{"a":1}}', "nested", "usage"),
    ('{"id":"trailing"} x', "", "usage"),
    ('{"id":"many-kernels","kernels":100000}', "many-kernels", "config"),
    ('{"id":"max-bytes","max_edge_bytes":18446744073709551615}',
     "max-bytes", "config"),
    ('{"id":"crlf","op":"stats"}\r', "crlf", None),
]


def check_hostile(binary):
    stdin = "".join(line + "\n" for line, _, _ in HOSTILE)
    proc = subprocess.run([binary], input=stdin.encode(), capture_output=True,
                          timeout=600)
    check(proc.returncode == 0,
          "serve exit {} != 0 after hostile lines: {}".format(
              proc.returncode, proc.stderr.decode(errors="replace")))
    lines = proc.stdout.decode().splitlines()
    check(len(lines) == len(HOSTILE),
          "expected {} hostile replies, got {}".format(len(HOSTILE),
                                                     len(lines)))
    for (request, echo, error), line in zip(HOSTILE, lines):
        reply = json.loads(line)
        check(reply["id"] == echo,
              "reply to {} echoes id {!r}, want {!r}".format(
                  request, reply["id"], echo))
        if error is None:
            check(reply["ok"] is True, "{} not served: {}".format(request,
                                                                  line))
            continue
        codes = {"usage": 2, "config": 3}
        check(reply["ok"] is False and reply["error"] == error
              and reply["exit_code"] == codes[error],
              "{} not a {} error: {}".format(request, error, line))


if __name__ == "__main__":
    sys.exit(main())
