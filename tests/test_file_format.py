"""The bytes every build writes, pinned by their sha256.

One seeded generator makes a dense relation, whose build stores a
presence bitmap header, and a sparse one, whose build keeps the run
header.  Each is built with 4096- and 256-byte index pages, and every
file except manifest.txt (which holds the build time) must have the
digest below.  A change to any file format must update these digests
on purpose; run this file with -s to print the digests a build writes.
"""

import hashlib

import pytest

from cubestore import SplitMix64, build_dataset, ingest_rows
from cubestore.array_store import Header, PresenceBitmap
from cubestore.dataset import MANIFEST_NAME

ROWS = 600

# files that the index page size does not change
SHARED = {
    "dense": {
        "dim_1.dim": "1458d3c786496d28db303807e82083438c844baa1f3c6ce02f34472623546d3c",
        "dim_2.dim": "d718eb8427655b60715711f90684555d336b66a745535dbf9ad74285a2a208d4",
        "relation.tbl": "56860e6c55255ae6a9ad0f12b4e6795c7ba5cb0dd3404a80b5557b7fd398bbe9",
        "relation.arr": "4505d3dcbbcc91ab422a416dabe4bab28c221b24b36c4c9006bc91be710163c5",
        "relation.hdr": "714e91f9362981c82573982d130b1a30099c534940fdefb00760779c6642de4a",
    },
    "sparse": {
        "dim_1.dim": "387a3e3ce3a62ee54ef0376c01c100f44ab96c8465ca31c7b66350402db3d5fd",
        "dim_2.dim": "477205fec06a6fda9262c5ab7d5009cd90ca704c7f6aeff9f54ca0bd75d3a2d0",
        "relation.tbl": "8c0f3370f7b8b13fa97bed2077981ab23b152da8770bd323bf8d536bbb66f923",
        "relation.arr": "3d27fc2c66f428e6e62307800fcdfb904556257f1a6340f35c487c3a016f50a6",
        "relation.hdr": "e31255796a5a2e6f69f249c02352d47a94a33ddc2db5bb29b72646f0be94210a",
    },
}
# index version 5: a 48-byte metadata header, then one page per node of
# separators of two 4-byte key fields, one per block of the table's
# 27-byte rows (4 blocks of 151 rows under one node in 4096-byte pages,
# 67 blocks of 9 rows under four nodes in 256-byte pages)
INDEX = {
    ("dense", 4096): "3a27cc929b4f385283b5fd10e3a2b065555230e3691710b6017afcfd178c5014",
    ("dense", 256): "287a40b5f49eb2b4ecb6b57b004f6a483d2eb78fb3e69dc5945a8e0b14a3ec9e",
    ("sparse", 4096): "6e9f3a876ddde4d39e9d2846f46ada779035f8997746be6494789700451e65f2",
    ("sparse", 256): "42b6b34cb64708035275c70f37522b7a0d2e7c453606a7383d5e5ffb58b0ca23",
}
ENCODING = {"dense": PresenceBitmap, "sparse": Header}


def seeded_rows(shape: str, seed: int = 2011):
    """ROWS rows (a, b, qty, price, note) of one key shape, from one seed.

    dense: 600 of the 30 x 25 cells; sparse: one random b of 600 per
    a, so 600 rows in a box of 600 x (the distinct b) cells.
    """
    rng = SplitMix64(seed)
    if shape == "dense":
        cells = set()
        while len(cells) < ROWS:
            cells.add((rng.below(30), rng.below(25)))
        keys = sorted(cells)
    else:
        keys = [(i, rng.below(ROWS)) for i in range(ROWS)]
    return [(f"a{i:03}", f"b{j:03}", str(rng.below(10**6) - 5 * 10**5),
             f"{rng.below(10**4) / 8}", "xyz"[: rng.below(4)])
            for i, j in keys]


def digests(root) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.iterdir()) if path.name != MANIFEST_NAME}


@pytest.mark.parametrize("page_size", [4096, 256])
@pytest.mark.parametrize("shape", ["dense", "sparse"])
def test_built_files_have_pinned_digests(tmp_path, shape, page_size):
    root = tmp_path / "ds"
    ingest_rows(["a", "b", "qty", "price", "note"], seeded_rows(shape), ["a", "b"], root)
    build_dataset(root, page_size=page_size)
    assert type(Header.load(root / "relation.hdr")) is ENCODING[shape]
    got = digests(root)
    print(shape, page_size, got)
    assert got == {**SHARED[shape], "relation.btx": INDEX[shape, page_size]}
