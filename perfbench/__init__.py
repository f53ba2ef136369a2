"""End-to-end benchmark of the Hoyan reproduction's three jobs.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in-process and prints its metrics as the
last line of standard output. See ``perfbench/README.md``.
"""
