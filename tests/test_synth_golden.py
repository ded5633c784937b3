"""Recorded sha256 digests of the five files ``panoroom synth`` writes.

The other tests compare two runs of one commit; these digests catch any
drift of the output bytes across commits. The H <= 33 entries were taken
from the two-render ``synth`` (one ray-cast with and one without boxes, the
mask over the full grid, the copying PFM writer), the H = 512 ones from the
one-pass whole-grid render, and the many-box ones from the band render that
held each box's entry distances over its whole footprint.
"""

import hashlib
import json
import os

import pytest

from panoroom.cli import main

NAMES = ("scene.json", "gt.pfm", "bg_gt.pfm", "layout.json", "segmask.pfm")

# (height, plan, --boxes, seed) -> number of boxes placed, digests in NAMES order
GOLDEN = {
    (32, "rect", (0, 0), 11): (0, (
        "fec25223d9bb9e0b67b5e616170b5e08b997a951f60743fdfe6fca749b4ebd27",
        "599173d17f995a159842c54d2bd384ada20eb6d39513d8d2d2b8ff115b06f3a1",
        "599173d17f995a159842c54d2bd384ada20eb6d39513d8d2d2b8ff115b06f3a1",
        "fb9c79002a28785bcba8de8958531a7a8f1460821b022e6da29b28ee1c994a70",
        "46d3eecfb940bac1f7138bd829a855f2355bb42ff4d99ff8e29261fcaef8ac83",
    )),
    (33, "rect", (2, 4), 12): (4, (
        "b0518af88c409fea2ca28c43197cc526841ff6b7e1db0fcb9dd732aca3b4d0cd",
        "defc3daea7ea34b08d56649def0d84695da659e8ffe9b07f101f546013c4e8cb",
        "46e7b46ff7a3cdefed6409249e1dfae7530e5335c4edc85bfb57303a08d7bbdd",
        "0c385c9383e0954a28009462161ba86c83ea43d62ad9f3d04397ad0cd929a35f",
        "a7d441890d89a26c07f3a52750c587467b1a90af50a4b6e31c928c0d26d5ac56",
    )),
    (32, "lshape", (2, 4), 13): (4, (
        "ce10fbc3f6de8d8bc4e914952dffd8c2381ef461072a25525ef3918fea171652",
        "23c8764abee62369850b9ea48633527f9a8c7b8e3be1527aa446dc6d885fb86b",
        "8bf29335177261dd415ddcc6323d415d214702ba5474e51fb125abfa59878fee",
        "8f4edd6007e4e91d176600fe56701e10e44962e5a205e6a1bf40c4ec0dae4ca0",
        "3df27bb0e56f72b4ee641a8e26485f95a0e62a2bad427cc3164cd77ada5f182f",
    )),
    (33, "lshape", (0, 0), 14): (0, (
        "e81b99b28a9b718372b5d5c83f5218b11d97231cb622bc585ab0e6b048f8b175",
        "89812d635136c12665602420763ef9fe906fa414027d1aa7b7f646235f5a30db",
        "89812d635136c12665602420763ef9fe906fa414027d1aa7b7f646235f5a30db",
        "053bfc75a1b029c2df3b2a154abfc3e3dc192a26b8ac9c63e3ea032d98db6ff3",
        "0110b9f48017d736c4a74cc17135949ce9a7e5db15605e05416167af94b32e96",
    )),
    # Taller grids render in several row bands, so these pin the band edges;
    # each scene holds a box across the lon = +-pi seam.
    (512, "rect", (2, 4), 9): (4, (
        "0932f791a03641cb7653765651838da970925f6145e1c06cebfd45a146e57b4b",
        "4a2be63bfbf632d3fd51a274abd5b15c28fc27bec20148413b970718f3c48380",
        "972c41591d388f89a7179b17d7da21573fd75c678403c1f1560f8a974ccac77d",
        "a997e43a60b5f7d653767a7277ecc596d9186ee726253ad6da8780f1ba475544",
        "16c96b7eaa4d34e52bbb5a7c900dbf5df1744b4ac388bfd90174ae6000c625fd",
    )),
    (512, "lshape", (2, 4), 10): (4, (
        "e979ef72447bd6a6a7578e59bd2526935e2ae8c3d77b8de6594d2fe6f04d329b",
        "8de41f9d86518e7c1dd471424f65e716f4c49567bd7b2839649fe26b61c9d8ee",
        "2e55d57df86cb98234cb9e68dafea97d0d51a442fd99c094ee28f1e7af0bfc30",
        "63f78f8125ff80392b50f9999e113183ea054deab46641b10c01a732e28f6b53",
        "0c769b567d335159f9a268df771241da9dcd8fc36d685b0b0dea289a8153d187",
    )),
    # Many boxes whose footprints overlap inside a band, and at H >= 257 cross
    # band edges; each scene holds boxes across the lon = +-pi seam.
    (64, "rect", (40, 40), 15): (40, (
        "31038df0089308d27a9c7c5e10beee4c3a50863a4969267ba7ed5121daf0dedb",
        "16ae8555f28989a6576fdbb2c3db34e0341d7eef579536b3ce1796711340a427",
        "2b5b6c5b9cc5118840da1360dc1994b9a39b99bbd7a9ae159a0cdc560404149c",
        "9206fd4671f19dd1dee2f581d316bd1c036a80cb62df9ecf9f5a19dcc4d347d8",
        "ad5222e3c93ff56d4c9833cf603946e79d33b9602ba1c745ad3f55bb186b3464",
    )),
    (257, "rect", (200, 200), 15): (200, (
        "fd1df3e9cd4df2b8075e992e692314cc59e6be71dfd7f54b1a1675425af00396",
        "4ddd66869ab8dbf75caf8615acc4d694ad928fb9344ec5d76667cb968f079129",
        "b9326e8d0c0cc8348096a4e3d9050e129b85ccc057944911e6e5cf53ddeae275",
        "a801ce1828c57930c0a3070a82981142e0045a4a113c1ab35242321ce9ba1fc3",
        "721075ec02d48288075fd2af2921b51bcdc2cb4d795c2dd9342430a68b3b71e0",
    )),
    (512, "lshape", (30, 30), 15): (30, (
        "32306408b32a1ba56b25e35808688f934b08f66881b9320e3a3c9723190a3ba1",
        "70b70a7aae91155f4f23f20f477ab84cbf65c67c3ff5864f1fe7ea382020069e",
        "4791a7d726bb05646349c00abb176e40e395bab2f1be26dd5d091e70f8d5d228",
        "380b09c5a8f8778948ec8a1e67167db91aac3b106f72bec5b91a12e29298d42f",
        "27438af8ceb78b88ad1df4617ac2e6eaf3812d8d7077efd1b1073fa55a18ff08",
    )),
}


@pytest.mark.parametrize(
    "case", sorted(GOLDEN), ids=lambda c: f"H{c[0]}-{c[1]}-boxes{c[2][0]}-{c[2][1]}"
)
def test_synth_files_match_recorded_digests(tmp_path, case):
    height, plan, (lo, hi), seed = case
    n_boxes, digests = GOLDEN[case]
    argv = ["synth", "--seed", str(seed), "--count", "1", "--plan", plan,
            "--out-dir", str(tmp_path), "--height", str(height), "--boxes", str(lo), str(hi)]
    assert main(argv) == 0
    scene_dir = tmp_path / "scene_000"
    assert len(json.loads((scene_dir / "scene.json").read_text())["boxes"]) == n_boxes
    got = tuple(hashlib.sha256((scene_dir / n).read_bytes()).hexdigest() for n in NAMES)
    assert dict(zip(NAMES, got)) == dict(zip(NAMES, digests))
