"""Set-up probe: import coringlab and build one workload's inputs, then
print "ready".  `run.py` times this from process start.  After that, the
probe prints one calibration time, the speed of the core it ran on.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys

import workloads

name, seed = sys.argv[1], int(sys.argv[2])
if name == "cli":
    import coringlab.cli  # noqa: F401
elif name == "corpus":
    workloads.CorpusWorkload().build_inputs(seed)
else:
    workloads.Ladder("QQ" if name == "ladder-qq" else "GF").build_inputs(seed)
print("ready", flush=True)
print(workloads.calibration_point())
