"""Steady end-to-end and per-layer benchmark of the study service.

``python3 svcbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
drives an in-process ``StudyService`` behind ``make_server`` with
closed-loop ``submit_study`` clients and prints one JSON result line.
See ``svcbench/README.md`` for the workloads and metrics.
"""
