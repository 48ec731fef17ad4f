"""One benchmark process: a set-up probe, a rank-4 build, or a traced verify.

    python3 bench/child.py [--trace SPANS.json --run-id ID] setup  --config CFG --group G
    python3 bench/child.py [--trace SPANS.json --run-id ID] build  --config CFG --group G --result OUT.json
    python3 bench/child.py  --trace SPANS.json --run-id ID  verify <gmcalc verify arguments>

``src/`` must be on PYTHONPATH.  The untraced verify workloads run
``python3 -m gmcalc.cli`` directly and never come through here.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def build_steps(group: str, config: str):
    """The set-up every workload pays: datum, Weyl group, lattice, chambers, triples."""
    from gmcalc.config import load_config
    from gmcalc.levilattice import levi_lattice, parabolics
    from gmcalc.rootdatum import build_root_system, weyl_group
    from gmcalc.spectral import enumerate_spectral_triples

    cfg = load_config(path=config, overrides={"group": group})
    d = build_root_system(cfg.group, cfg.gram)
    W = weyl_group(d)
    levis = levi_lattice(d)
    chambers = sum(len(parabolics(L)) for L in levis)
    triples = enumerate_spectral_triples(d)
    return W, levis, chambers, triples


def build(group: str, config: str) -> dict:
    """The cold write side: set-up plus coset representatives and tau classes."""
    from gmcalc.levilattice import weyl_cosets
    from gmcalc.spectral import tau_class

    W, levis, chambers, triples = build_steps(group, config)
    cosets = sum(len(weyl_cosets(L)) for L in levis)
    homes = [tau_class(t).levi_L.label for t in triples]
    labels = "\n".join(L.label for L in levis)
    return {
        "W": len(W),
        "levis": len(levis),
        "chambers": chambers,
        "triples": len(triples),
        "cosets": cosets,
        "levi_labels_sha256": hashlib.sha256(labels.encode()).hexdigest(),
        "tau_homes_sha256": hashlib.sha256("\n".join(homes).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="bench/child.py")
    ap.add_argument("--trace", help="write spans here at exit")
    ap.add_argument("--run-id", default="0")
    ap.add_argument("mode", choices=["setup", "build", "verify"])
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    rest = args.rest

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    try:
        if args.mode == "verify":
            from gmcalc.cli import main as gmcalc_main

            return gmcalc_main(rest)
        sub = argparse.ArgumentParser(prog=f"bench/child.py {args.mode}")
        sub.add_argument("--config", required=True)
        sub.add_argument("--group", required=True)
        sub.add_argument("--result")
        opts = sub.parse_args(rest)
        if args.mode == "setup":
            build_steps(opts.group, opts.config)
            return 0
        result = build(opts.group, opts.config)
        with open(opts.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh, sort_keys=True)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
