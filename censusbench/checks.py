"""Output checks of the census benchmark.

Each check returns a list of problems; an empty list means the output is
correct.  A run with problems counts as failed in the benchmark's error
rate instead of stopping it.  mecensus must be importable (run.py puts
the checkout's src/ first on sys.path).
"""

from __future__ import annotations

import hashlib
from math import comb
from pathlib import Path

from mecensus import catalog, reference
from mecensus.census import robinson_adg_count
from mecensus.graphs import pair_count

# SHA-256 of the report and of the concatenated catalog files e0..em as
# the code produced them when this benchmark was added.  Reports are
# byte-identical for every --jobs value and backend, and catalogs are a
# stable on-disk format, so a changed digest is a defect: it is how the
# census-n7-jobs2 report is held byte-identical to the census-n7 one.
REPORT_SHA256 = {
    5: "15bcfb0d749e395ac6cddaea1b5294c472647a9587ae061c5fb7267ae7340edf",
    7: "7df17c35eb3632c06e85aca925b9eec333d35ae2d2a6723b5ec72cea01898005",
}
CATALOG_SHA256 = {
    5: "16a01cd7838f31cf8182fbd0a78c8707ed376d61c02b876178cd75f9db7d48e9",
    7: "179a3e513329a526c1b1fda76de95d33457eb8b53ea218b6d14719d0f6c93d16",
    8: "37f792b0dd3abe243d0262cec1bfa1639a18f68c7bf24587c30de077155fec66",
}


def report_problems(path: Path, n: int) -> list[str]:
    """The report at path against the published census for n."""
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        return [f"report unreadable: {exc}"]
    fields = dict(line.split(" = ", 1)
                  for line in text.decode("utf-8", "replace").splitlines() if " = " in line)
    want = {
        "n": str(n),
        "total_adgs": str(robinson_adg_count(n)),
        "total_classes": str(reference.KNOWN_CLASS_COUNTS[n]),
        "ratio": reference.KNOWN_RATIOS[n],
        "size1_ratio": reference.KNOWN_SIZE1_RATIOS[n],
        "max_vconfigs": str(reference.KNOWN_MAX_VCONFIGS[n]),
        "max_classes_per_skeleton": str(reference.KNOWN_MAX_CLASSES[n]),
    }
    problems = [f"{key} = {fields.get(key)!r}, want {value!r}"
                for key, value in want.items() if fields.get(key) != value]
    digest = hashlib.sha256(text).hexdigest()
    if n in REPORT_SHA256 and digest != REPORT_SHA256[n]:
        problems.append(f"report bytes differ from the pinned n={n} report (sha256 {digest})")
    return problems


def catalog_problems(root: Path, n: int) -> list[str]:
    """The catalogs under root, read back through catalog.read_catalog.

    Every layer file e0..em must exist and nothing else, each layer's
    labellings must sum to C(m, e), and the record total must be the
    number of unlabeled graphs on n vertices.
    """
    m = pair_count(n)
    expected = {catalog.catalog_path(root, n, e).name for e in range(m + 1)}
    layer_dir = catalog.catalog_path(root, n, 0).parent
    present = {p.name for p in layer_dir.iterdir()} if layer_dir.is_dir() else set()
    problems = [f"unexpected file {name}" for name in sorted(present - expected)]
    records = 0
    digest = hashlib.sha256()
    for e in range(m + 1):
        path = catalog.catalog_path(root, n, e)
        try:
            fn, fe, recs = catalog.read_catalog(path)
            digest.update(path.read_bytes())
        except (OSError, catalog.CatalogError) as exc:
            problems.append(f"e={e}: {exc}")
            continue
        if (fn, fe) != (n, e):
            problems.append(f"{path.name}: header says n={fn} e={fe}")
        labelled = sum(r.labellings for r in recs)
        if labelled != comb(m, e):
            problems.append(f"e={e}: labellings sum to {labelled}, want C({m}, {e}) = {comb(m, e)}")
        records += len(recs)
    if records != reference.KNOWN_UNLABELED_GRAPHS[n]:
        problems.append(f"{records} records, want {reference.KNOWN_UNLABELED_GRAPHS[n]}")
    if not problems and n in CATALOG_SHA256 and digest.hexdigest() != CATALOG_SHA256[n]:
        problems.append(f"catalog bytes differ from the pinned n={n} catalogs "
                        f"(sha256 {digest.hexdigest()})")
    return problems
