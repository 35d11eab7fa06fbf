"""Cross-commit pins on the exact miss-rate curves of Table II.

The golden ledger holds three curves; these digests hold the exact
(``"stack"``) curve of every strong-scaling benchmark at quarter scale,
seed 0, so a rewrite of the L1 filter or the stack-distance pass that
moves any curve of any benchmark fails here.  The digest covers the
whole curve payload but ``collection_seconds``: MPKI, miss ratios and
the L1 and LLC access counts.

A digest that moves means the curve moved: fix the array path, do not
re-record — unless a trace pin (``tests/workloads/test_trace_pins.py``)
moved with it for a documented reason.
"""

import pytest

from repro.analysis.runner import compute_mrc, curve_payload
from repro.verify.digest import payload_digest
from repro.workloads import get_benchmark, strong_scaling_names

PINS = {
    "dct": "sha256:a7dccf950820b8d441a2ffb3f8480e2ec85bbb5e18daf40ab9dfe10da959b834",
    "fwt": "sha256:43712693760f797ebfe9430d7e8f1bff009caf6e0fc31be1f9ace92041f66d4d",
    "bp": "sha256:032f41c817c3407719ac5c491d7c4dcb56bc01cc6efbcf1c8a3fc9e029561be3",
    "va": "sha256:ea0697f21e645819d1dbdc13a077cc9beb5503ad7dcaaed3de2946399c14b3e8",
    "as": "sha256:fc313121baba7acd3fa372a6e0fa8ec913ce3d09c54714eee9447424b7dd7045",
    "lu": "sha256:a7abf8d239e64e79079664feac85589a98241d4aa5ad27f0821452bf2ea54148",
    "st": "sha256:78dbc2a3428ae4bc4a56e674789eb973f482fca9a650f66fe6dc5480de0b4e3c",
    "bfs": "sha256:ac04239e60c098e2c60a5478dfef61249b3034edbf4ca65658d66e458e6f8444",
    "unet": "sha256:28449dca5123412bae4703e24621e0d88ce8d630b63ae3be7047c9ccb86762ac",
    "sr": "sha256:ea42ed2ac298fc19a17005a7a77086118351ff836c60d3e12ea2a87d2c4b8f73",
    "gr": "sha256:34db0e558eaf6a240f001591efb27abcc297686e528d3eb9b82d1fbbcc8e1551",
    "btree": "sha256:6de872311fe9bdf9a3c7a7209579888f5b3b67847e4d407eb5b0b2f5e99d4f92",
    "pf": "sha256:2cb1797692c5bd9dc6218f02c88551bbefa2407dc671f9981a50058ad64bb29c",
    "res50": "sha256:70d149b18ac7f31c621f7a889b6992f9d4fe1229e4a02a6da597f9f3e1d2408c",
    "res34": "sha256:f0c1ac3d667ff82d6f564043f603057c5486809ef077be76825149a6dac82d71",
    "ht": "sha256:a7816ae8596ef5aa2b5c908c0426d9b917fb19e919701ebb6d5877099447ed77",
    "at": "sha256:45e8c7af91d6a2a40ce1c3c756fb9bfc175f45eae3dc155aa65e2e71de334bc6",
    "gemm": "sha256:56d22493b5c55a24da30f5a4ada911241546690da45262db9ecfb8d110d1e631",
    "2mm": "sha256:31a0efd15764c684abf40e53a9a43dd5454e3aa3c349b6ea1e225bd487237d21",
    "lbm": "sha256:2dfad1b62de5082e2235f13d014255634addc1e10a43a862affad6f50bd17148",
    "bs": "sha256:742a6f8d48e8fc758fbe8a3472c40932e5172ca9f1e60938782482fe8cd080ed",
}


def test_pins_cover_table_ii():
    assert sorted(PINS) == sorted(strong_scaling_names())


@pytest.mark.parametrize("abbr", sorted(PINS))
def test_exact_curve_pinned(abbr):
    curve = compute_mrc(get_benchmark(abbr), 0.25, "stack", 0)
    assert payload_digest(curve_payload(curve)) == PINS[abbr]
