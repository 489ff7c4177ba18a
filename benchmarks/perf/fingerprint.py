"""What host produced a result record.

compare.py refuses to compare records whose host identity differs:
same CPU count, CPU model, Python and NumPy.  The commit and the dirty
flag are recorded too but are not part of the identity -- two commits
on one host is what a comparison is for.

``effective_parallelism`` is measured, not read: two processes burn a
fixed loop at once, and the CPU seconds they got divided by the wall
time they took says how many cores' worth of throughput the host gave
at that moment.  It is recorded but not part of the identity: on the
2-CPU container the benchmark was built on it read anywhere from 0.97
to 1.97 within one minute, as the CPU quota and its neighbours' load
moved.
"""

import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Optional

HOST_KEYS = ("nproc", "cpu_model", "python", "numpy")
#: Loop length of each burner: about 0.1-0.2 s of CPU.
BURN_ITERATIONS = 1_000_000

_BURN = ("import sys, time\n"
         "n = int(sys.argv[1]); start = time.perf_counter()\n"
         "cpu = time.process_time(); x = 0\n"
         "for i in range(n): x += i * i\n"
         "print(start, time.perf_counter(), time.process_time() - cpu)\n")


def effective_parallelism() -> float:
    """CPU seconds two concurrent burners got per wall second."""
    procs = [subprocess.Popen([sys.executable, "-c", _BURN,
                               str(BURN_ITERATIONS)],
                              stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    runs = [[float(v) for v in proc.communicate(timeout=60)[0].split()]
            for proc in procs]
    wall = max(end for _, end, _ in runs) - min(start for start, _, _ in runs)
    return round(sum(cpu for _, _, cpu in runs) / wall, 2)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(root: str, *args: str) -> Optional[str]:
    # The ceiling keeps git from climbing out of the checkout when the
    # benchmark runs from an exported tree that is not a repository.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        done = subprocess.run(["git", "-C", root, *args], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_fingerprint(root: str) -> Dict[str, Any]:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count() or 1
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"nproc": nproc, "effective_parallelism": effective_parallelism(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "dirty": None if status is None else bool(status),
            "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime())}


def host_identity(fingerprint: Dict[str, Any]) -> tuple:
    return tuple(fingerprint.get(key) for key in HOST_KEYS)
