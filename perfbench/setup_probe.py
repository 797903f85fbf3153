"""One benchmark set-up in a fresh process: import amoo, build every config.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints ``ready`` once set-up is done; ``run.py`` times the process from
its start to that line and turns those times into ``setup_s``.
"""

import sys

from run import load_amoo

load_amoo()
import workloads  # noqa: E402  (needs the checkout's src on sys.path)

name, seed = sys.argv[1], int(sys.argv[2])
workloads.WORKLOADS[name](seed, out_dir=None).setup()
print("ready", flush=True)
