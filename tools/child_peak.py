"""Run one command as a child process and report the child's own peak RSS.

    python3 tools/child_peak.py [--max-mib M] -- COMMAND [ARG ...]

Forks, execs COMMAND (looked up on PATH) and reads the child's peak
resident set size from os.wait4's ru_maxrss.  Prints one line with the
child's exit code and its peak in MiB, and exits 1 when the child exits
non-zero or when its peak is above M MiB, else 0.  A child's ru_maxrss
starts from its parent's peak at exec, so this launcher imports only os
and sys: it stays smaller than the peaks it measures.

The child runs without PYTHONDONTWRITEBYTECODE, as the benchmark's
children do: with it set, a tree whose sources have changed since their
bytecode was cached recompiles them on every import, which adds about
1.1 MiB to a Python child's peak.
"""
import os
import sys

USAGE = "usage: child_peak.py [--max-mib M] -- COMMAND [ARG ...]"


def main(argv) -> int:
    if "--" not in argv or argv.index("--") == len(argv) - 1:
        print(USAGE, file=sys.stderr)
        return 2
    split = argv.index("--")
    options, command = argv[:split], argv[split + 1:]
    bound = None
    if options:
        try:
            flag, value = options
            if flag != "--max-mib":
                raise ValueError(flag)
            bound = float(value)
        except ValueError:
            print(USAGE, file=sys.stderr)
            return 2
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    pid = os.fork()
    if pid == 0:
        try:
            os.execvpe(command[0], command, env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    peak = usage.ru_maxrss / (1 << (20 if sys.platform == "darwin" else 10))
    print(f"{os.path.basename(command[0])}: exit {code}, "
          f"peak RSS {peak:.2f} MiB"
          + ("" if bound is None else f" (bound {bound:g} MiB)"))
    if code != 0:
        print(f"child_peak: the child exited with {code}", file=sys.stderr)
        return 1
    if bound is not None and peak > bound:
        print(f"child_peak: peak RSS {peak:.2f} MiB is above {bound:g} MiB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
