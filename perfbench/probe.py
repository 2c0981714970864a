"""Set-up probe: one fresh process doing exactly the set-up of a workload run.

Imports numpy, scipy and delay_wave_lab, builds the workload's job list and
parses every job's config, then writes ``ready`` to stdout and exits.  The
benchmark times each probe from just before it starts the process to the
moment it reads that line.

    python3 perfbench/probe.py <src directory> <workload> <seed>
"""

import sys


def main(src: str, workload: str, seed: str) -> int:
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    from delay_wave_lab import cli

    import workloads

    for job in workloads.build(workload, int(seed)):
        cli.parse_config(job.config_text())
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
