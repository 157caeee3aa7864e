"""SHA-256 digests of the benchmark workloads' outputs, to show that a change
keeps them byte for byte.

    python3 scripts/output_digests.py [--seed N]

Builds each workload's inputs with `bench/inputs.py` at the seed (default
7101) and prints one line per workload:

- `separate`: every subject's report as `separate` prints it, then its
  decomposition trace as `trace_to_jsonl` writes it, `solver_stats` included;
- `decompose-langs`: the decomposition trace of every DMGTS;
- `toolkit`: every operation's output as `bench/child.py` describes it, as
  sorted-key JSON.

The digests must not depend on PYTHONHASHSEED; CI runs this under two and
compares both with `scripts/output_digests.txt`, the digests at the default
seed. A change that alters an output on purpose updates that file.
"""

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import child  # noqa: E402  (puts the checkout's src/ on the path)
import inputs  # noqa: E402
from vasslab import decomposition, driver, mgts, model  # noqa: E402


def separate_parts(doc):
    for _name, subject, max_len, *_ in doc["subjects"]:
        report = driver.cmd_separate(model.init_vass_from_json(subject),
                                     driver.PipelineCaps(max_word_len=max_len))
        yield json.dumps(report.to_json(), sort_keys=True, indent=2)
        yield decomposition.trace_to_jsonl(report.trace)


def decompose_parts(doc):
    for _name, kind, d in doc["dmgts"]:
        if kind == "subject":
            dm = mgts.initial_dmgts(model.init_vass_from_json(d))
        else:
            dm = mgts.dmgts_from_json(d)
        yield decomposition.trace_to_jsonl(decomposition.decompose(dm).trace)


def toolkit_parts(doc):
    for _name, run, describe in child.toolkit_ops(doc):
        yield json.dumps(describe(run()), sort_keys=True)


PARTS = {"separate": separate_parts, "decompose-langs": decompose_parts,
         "toolkit": toolkit_parts}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7101)
    args = parser.parse_args(argv)
    for workload, parts in PARTS.items():
        # the documents as the benchmark child reads them back
        doc = json.loads(json.dumps(inputs.workload_inputs(workload, args.seed)))
        digest = hashlib.sha256()
        for part in parts(doc):
            digest.update(part.encode())
        print(workload, digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
