#!/usr/bin/env python3
"""Regenerate the bundled goldens under src/fano_enriques/data/.

The cover catalogs covers_codim{1,2,3}.json are curated inputs: the
script reads them and never writes them.  Every golden is rewritten as
`catalog.curated_payload()` of one `catalog.reproduce()`.  Its non-curated
content comes only from that run.  Its curated fields (each row's and
special case's label and notes), the order of its rows and special cases,
and its decoys (the catalog's covers that no labelled entry names) come
from the golden it replaces.

The script reads every golden and builds every payload before it writes
any, so an unreadable golden stops it with the data directory untouched.
It prints every non-curated field it is about to overwrite, writes the
goldens, and then compares the written files with that same reproduction.
The package must read its data from the directory the script writes, this
checkout's; else the script stops before writing.

Run from the repository root:

    python scripts/build_catalogs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from fano_enriques import catalog
from fano_enriques.errors import CatalogError

# the checkout's data directory, which the package must read as well
DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "fano_enriques" / "data"


def fail(msg: str):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    package_data = catalog._data_root()
    if Path(str(package_data)).resolve() != DATA_DIR.resolve():
        fail(f"the package reads {package_data}, not this checkout's {DATA_DIR}; "
             f"put the checkout's src/ first on the path")
    print("building bundled fixtures ...")
    rep = catalog.reproduce()
    try:
        payloads = {name: catalog.curated_payload(rep, name, catalog.bundled_json(name))
                    for name in catalog.GOLDENS}
    except CatalogError as exc:
        fail(str(exc))
    for problem in rep.mismatches():
        print(f"  overwriting {problem}")
    for name, payload in payloads.items():
        (DATA_DIR / name).write_text(json.dumps(payload, indent=1) + "\n")
        print(f"  {name}: written")

    problems = rep.mismatches()
    if problems:
        fail("verify_fixtures: " + "; ".join(problems))
    print("verify_fixtures: all bundled fixtures check out")


if __name__ == "__main__":
    main()
