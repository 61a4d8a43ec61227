"""Canonical end-to-end benchmark of the four ``python -m repro`` entry
points, with per-layer attribution.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the root of a checkout and prints,
as its last stdout line, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``). The workloads,
metric names, units and regression bounds are declared in
``BENCHMARK.json`` at the repository root.

Modules:

``run``
    The orchestrator (standard library only). Runs rounds, each in a
    fresh interpreter, until the time budget is spent, aggregates medians
    and prints the result line.
``round``
    One round of one workload in a fresh process: pin the environment,
    import the program, set up, run the cold and warm passes, check the
    outputs, report the samples.
``layers``
    Spans recorded from outside the program around the public entry
    points of each layer, and the self-time table built from them.
``workloads``
    The four workloads: ``artifacts``, ``serve-mixed``, ``thermal-loop``
    and ``fleet``.
``reference/artifacts.json``
    Digests of every experiment's result data, which ``artifacts``
    checks its outputs against.
``test_perfbench``
    A tiny-size smoke test of the benchmark itself
    (``python3 -m pytest perfbench``).
"""
