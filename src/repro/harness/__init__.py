"""The experiment harness: one runnable experiment per paper figure.

Every table and figure of the paper's evaluation (§5) has a registered
experiment that regenerates its rows on the simulated testbed:

==============  ====================================================
experiment id    what it reproduces
==============  ====================================================
``fig02``        motivation: nested vs single-level netperf
``fig04``        BrFusion micro-benchmark sweep (throughput+latency)
``fig05``        BrFusion macro-benchmarks (Kafka, NGINX, Memcached)
``fig06``        CPU breakdown under Kafka
``fig07``        CPU breakdown under NGINX
``fig08``        container boot time, NAT vs BrFusion (100 runs)
``fig09``        Hostlo cost savings on the synthetic Google traces
``fig10``        Hostlo overhead micro-benchmark sweep
``fig11_12``     Memcached over Hostlo (throughput + latency)
``fig13``        NGINX over Hostlo (latency)
``fig14``        CPU usage, Memcached over Hostlo
``fig15``        CPU usage, NGINX over Hostlo
``table01``      macro-benchmark parameters
``table02``      the AWS m5 catalog
==============  ====================================================

Extensions beyond the paper (same registry): ``ablation_hostlo_thread``,
``ablation_netfilter_cost``, ``ablation_no_batching``,
``ablation_rule_bloat``, ``ablation_scheduler_policy``, ``online_cost``
and ``analytic_check``.

Use :func:`run_experiment` (or ``python -m repro.harness``)::

    from repro.harness import run_experiment, ExperimentConfig
    result = run_experiment("fig04", ExperimentConfig.preset("quick"))
    print(result.render())
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ["ExperimentConfig"],
    ".registry": ["EXPERIMENTS", "run_experiment"],
    ".results": ["ExperimentResult"],
})
