"""Spawns the benchmark's child processes from a process that stays small.

Linux charges a process that calls exec with the peak RSS of the address
space it replaces, and a child spawned by the harness replaces a copy of the
harness, which holds whole outputs and parsed tables.  Its ``ru_maxrss``
would then report the harness's size, not its own.  Children spawned from
this launcher inherit only the launcher's few megabytes.

Protocol, over stdin and stdout: each request is one line of NUL-separated
argv.  For each, the launcher spawns the argv, reads the child's stdout to
EOF, forwarding it in frames of a 4-byte big-endian length and the bytes, and
reads its stderr.  It then reaps the child with ``os.wait4`` and sends a
zero-length frame, a line ``<exit code> <wall seconds> <ru_maxrss KiB>
<stderr bytes>`` and the stderr bytes.  The clock runs from spawn until the
child has exited and its stdout has been read in full.  End of input ends the
launcher.
"""

import os
import sys
from time import perf_counter

CHUNK = 1 << 16


def serve(requests, replies):
    while line := requests.readline():
        argv = line.rstrip(b"\n").split(b"\0")
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out_w, 1),
            (os.POSIX_SPAWN_DUP2, err_w, 2),
        ]
        t0 = perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        os.close(out_w)
        os.close(err_w)
        while chunk := os.read(out_r, CHUNK):
            replies.write(len(chunk).to_bytes(4, "big") + chunk)
        err = b"".join(iter(lambda: os.read(err_r, CHUNK), b""))  # one diagnostic line, read after stdout
        _, status, usage = os.wait4(pid, 0)
        elapsed = perf_counter() - t0
        os.close(out_r)
        os.close(err_r)
        code = os.waitstatus_to_exitcode(status)
        replies.write(b"\0\0\0\0%d %r %d %d\n" % (code, elapsed, usage.ru_maxrss, len(err)) + err)
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin.buffer, sys.stdout.buffer)
