"""One set-up sample: fresh interpreter -> import crmkit -> first parse and build.

``python3 setup_probe.py <workload> <plan.json> <t0>`` prints the seconds
from ``t0`` (a ``time.time()`` taken by the parent just before it started
this interpreter) until the workload's first inputs are parsed into
``LevyContext`` objects.
"""

import sys
import time


def main() -> None:
    workload, plan_path, t0 = sys.argv[1], sys.argv[2], float(sys.argv[3])
    import json
    from pathlib import Path

    import crmkit

    plan = json.loads(Path(plan_path).read_text())
    if workload == "sample-mix":
        text = (Path(plan_path).parent / plan["ops"][0]["config"]).read_text()
        contexts, _ = crmkit.parse_sample_config(crmkit.load_json(text))
    elif workload == "functionals":
        contexts = []
        for name, obj in plan["contexts"].items():
            if name == "pareto_series":
                contexts += crmkit.parse_sample_config({"pareto_series": obj})[0]
            else:
                contexts.append(crmkit.parse_component(obj))
    else:
        from crmkit import cli

        cli.build_parser().parse_args(["verify", "--suite", "all"])
        contexts = [
            crmkit.LevyContext.build(
                crmkit.make_family("gamma"),
                crmkit.ParameterPath.constant([2.0, 3.0]),
                crmkit.BaseMeasure.lebesgue(1.0),
                k=2,
            )
        ]
    elapsed = time.time() - t0
    if not contexts:
        sys.exit("no contexts built")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
