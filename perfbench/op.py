"""One benchmark operation, in the fresh process that run.py spawns for it.

    python3 perfbench/op.py probe OUT
    python3 perfbench/op.py ensemble OUT --seed S --store DIR [--backend B]
    python3 perfbench/op.py localize OUT --seed S --store DIR
        --experiment NAME [--experiment NAME ...] [--backend B] [--trace]

``probe`` imports the program and writes its identity: the
``runtime_info()`` fingerprint, the default backend and the registered
experiments.  ``ensemble`` builds one accepted ensemble into a store.
``localize`` runs each named experiment, with ``base_seed`` set to the
seed, through ``repro.experiments.run_experiment`` and writes every
report's ``to_json()``; with ``--trace`` it also writes the per-layer
ledger of :mod:`layers`.  Every mode writes one JSON document to OUT.
"""

from __future__ import annotations

import argparse
import json
import time

_STARTED = time.perf_counter()


def _spec(name: str, seed: int, backend):
    from repro.experiments import get_experiment

    return get_experiment(name).with_(base_seed=seed, backend=backend)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("probe", "ensemble", "localize"))
    parser.add_argument("out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--store")
    parser.add_argument("--backend")
    parser.add_argument("--experiment", action="append", default=[])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.experiments
    import repro.pipeline

    doc: dict = {"import_s": time.perf_counter() - _STARTED}
    if args.mode == "probe":
        from repro.ensemble.backends import DEFAULT_BACKEND
        from repro.obs import runtime_info

        doc.update(
            runtime_info=runtime_info(),
            default_backend=DEFAULT_BACKEND,
            experiments=repro.experiments.list_experiments(),
        )
    elif args.mode == "ensemble":
        spec = _spec(repro.experiments.list_experiments()[0], args.seed, None)
        repro.pipeline.accepted_ensemble(
            spec.ensemble_spec(), store_dir=args.store, backend=args.backend
        )
    else:
        ledger = None
        if args.trace:
            import layers

            ledger = layers.install()
        reports = {}
        for name in args.experiment:
            result = repro.experiments.run_experiment(
                _spec(name, args.seed, args.backend), store_dir=args.store
            )
            reports[name] = result["report"].to_json()
        doc["reports"] = reports
        if ledger is not None:
            doc["layers"] = ledger.snapshot()
    with open(args.out, "w") as handle:
        json.dump(doc, handle)


if __name__ == "__main__":
    main()
