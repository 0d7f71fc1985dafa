"""In-process benchmark for the simulator and the results service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics; see README.md.
"""
