"""Result identity under per-target frames, on the many-property families.

IC3's solvers load frames projected onto their target's cone
(``TransitionSystem.encode_cone``).  A projection must change no answer:
every pin below — per property, (status, frames, ``sat_queries``) of
``ja`` and ``separate`` — was recorded on whole-design frames, before
projections existed.  A step slice that drops a next-state function a
query needs fails here: the query raises ``OutOfSliceError`` or, with a
missing definition, answers differently and moves a frame or query
count.
"""

from __future__ import annotations

import pytest

from repro.gen import all_true_designs, failing_designs
from repro.multiprop.ja import JAVerifier
from repro.session import VerificationConfig
from repro.ts.system import TransitionSystem

#: (design, strategy) -> property -> (status, frames, sat_queries), on the
#: `cdcl` backend at the default knobs.
PINNED = {
    ('f104', 'ja'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'r0_X0': ('HOLDS', 2, 6), 'r0_X1': ('HOLDS', 3, 12), 'r0_X2': ('HOLDS', 4, 19),
        'r0_X3': ('HOLDS', 4, 19), 'r0_X4': ('HOLDS', 3, 11), 'r1_X0': ('HOLDS', 2, 6),
        'r1_X1': ('HOLDS', 3, 12), 'r1_X2': ('HOLDS', 4, 19), 'r1_X3': ('HOLDS', 4, 19),
        'r1_X4': ('HOLDS', 3, 11), 's0_D0': ('HOLDS', 2, 5), 's0_D1': ('HOLDS', 2, 2),
        's0_D2': ('HOLDS', 2, 2), 's0_G': ('FAILS', 3, 8), 's0_T': ('HOLDS', 2, 5), 'z_Z0':
        ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5),
    },
    ('f104', 'separate'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'r0_X0': ('HOLDS', 7, 83), 'r0_X1': ('HOLDS', 2, 2), 'r0_X2': ('HOLDS', 2, 2),
        'r0_X3': ('HOLDS', 2, 2), 'r0_X4': ('HOLDS', 2, 2), 'r1_X0': ('HOLDS', 7, 83),
        'r1_X1': ('HOLDS', 2, 2), 'r1_X2': ('HOLDS', 2, 2), 'r1_X3': ('HOLDS', 2, 2),
        'r1_X4': ('HOLDS', 2, 2), 's0_D0': ('FAILS', 15, 150), 's0_D1': ('FAILS', 153,
        3226), 's0_D2': ('FAILS', 223, 5150), 's0_G': ('FAILS', 3, 8), 's0_T': ('HOLDS', 4,
        19), 'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5),
    },
    ('f380', 'ja'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'c0_C6': ('HOLDS', 2, 5), 'c0_C7': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 2, 6),
        'r0_X1': ('HOLDS', 3, 12), 'r0_X2': ('HOLDS', 4, 19), 'r0_X3': ('HOLDS', 4, 19),
        'r0_X4': ('HOLDS', 3, 11), 's0_D0': ('HOLDS', 2, 5), 's0_D1': ('HOLDS', 2, 5),
        's0_D10': ('HOLDS', 2, 2), 's0_D11': ('HOLDS', 2, 2), 's0_D12': ('HOLDS', 2, 2),
        's0_D13': ('HOLDS', 2, 2), 's0_D2': ('HOLDS', 2, 2), 's0_D3': ('HOLDS', 2, 5),
        's0_D4': ('HOLDS', 2, 2), 's0_D5': ('HOLDS', 2, 2), 's0_D6': ('HOLDS', 2, 2),
        's0_D7': ('HOLDS', 2, 5), 's0_D8': ('HOLDS', 2, 2), 's0_D9': ('HOLDS', 2, 2),
        's0_G': ('FAILS', 2, 3), 's0_T': ('HOLDS', 2, 5), 's1_D0': ('HOLDS', 2, 5), 's1_D1':
        ('HOLDS', 2, 2), 's1_D10': ('HOLDS', 2, 2), 's1_D11': ('HOLDS', 2, 2), 's1_D12':
        ('HOLDS', 2, 2), 's1_D13': ('HOLDS', 2, 2), 's1_D2': ('HOLDS', 2, 2), 's1_D3':
        ('HOLDS', 2, 2), 's1_D4': ('HOLDS', 2, 2), 's1_D5': ('HOLDS', 2, 2), 's1_D6':
        ('HOLDS', 2, 2), 's1_D7': ('HOLDS', 2, 2), 's1_D8': ('HOLDS', 2, 2), 's1_D9':
        ('HOLDS', 2, 5), 's1_G': ('FAILS', 3, 8), 's1_T': ('HOLDS', 2, 5), 's2_D0':
        ('HOLDS', 2, 5), 's2_D1': ('HOLDS', 2, 2), 's2_D10': ('HOLDS', 2, 2), 's2_D11':
        ('HOLDS', 2, 2), 's2_D12': ('HOLDS', 2, 2), 's2_D2': ('HOLDS', 2, 2), 's2_D3':
        ('HOLDS', 2, 2), 's2_D4': ('HOLDS', 2, 2), 's2_D5': ('HOLDS', 2, 2), 's2_D6':
        ('HOLDS', 2, 2), 's2_D7': ('HOLDS', 2, 2), 's2_D8': ('HOLDS', 2, 2), 's2_D9':
        ('HOLDS', 2, 5), 's2_G': ('FAILS', 4, 12), 's2_T': ('HOLDS', 2, 5), 'z_Z0':
        ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2': ('HOLDS', 2, 5), 'z_Z3': ('HOLDS',
        2, 5),
    },
    ('f380', 'separate'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'c0_C6': ('HOLDS', 2, 5), 'c0_C7': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 7, 83),
        'r0_X1': ('HOLDS', 2, 2), 'r0_X2': ('HOLDS', 2, 2), 'r0_X3': ('HOLDS', 2, 2),
        'r0_X4': ('HOLDS', 2, 2), 's0_D0': ('FAILS', 6, 33), 's0_D1': ('FAILS', 10, 97),
        's0_D10': ('FAILS', 122, 3594), 's0_D11': ('FAILS', 162, 3775), 's0_D12': ('FAILS',
        202, 4381), 's0_D13': ('FAILS', 242, 7287), 's0_D2': ('FAILS', 14, 141), 's0_D3':
        ('FAILS', 18, 287), 's0_D4': ('FAILS', 22, 171), 's0_D5': ('FAILS', 26, 390),
        's0_D6': ('FAILS', 30, 414), 's0_D7': ('FAILS', 34, 774), 's0_D8': ('FAILS', 38,
        632), 's0_D9': ('FAILS', 82, 1045), 's0_G': ('FAILS', 2, 3), 's0_T': ('HOLDS', 4,
        19), 's1_D0': ('FAILS', 9, 45), 's1_D1': ('FAILS', 14, 62), 's1_D10': ('FAILS', 133,
        3684), 's1_D11': ('FAILS', 173, 4157), 's1_D12': ('FAILS', 213, 3826), 's1_D13':
        ('FAILS', 253, 8014), 's1_D2': ('FAILS', 16, 155), 's1_D3': ('FAILS', 20, 239),
        's1_D4': ('FAILS', 25, 194), 's1_D5': ('FAILS', 28, 269), 's1_D6': ('FAILS', 32,
        480), 's1_D7': ('FAILS', 36, 654), 's1_D8': ('FAILS', 40, 708), 's1_D9': ('FAILS',
        94, 1482), 's1_G': ('FAILS', 3, 8), 's1_T': ('HOLDS', 4, 19), 's2_D0': ('FAILS', 10,
        89), 's2_D1': ('FAILS', 16, 103), 's2_D10': ('FAILS', 144, 3117), 's2_D11':
        ('FAILS', 186, 2891), 's2_D12': ('FAILS', 224, 5221), 's2_D2': ('FAILS', 18, 256),
        's2_D3': ('FAILS', 22, 309), 's2_D4': ('FAILS', 28, 290), 's2_D5': ('FAILS', 30,
        403), 's2_D6': ('FAILS', 34, 639), 's2_D7': ('FAILS', 38, 673), 's2_D8': ('FAILS',
        42, 849), 's2_D9': ('FAILS', 104, 2047), 's2_G': ('FAILS', 4, 12), 's2_T': ('HOLDS',
        4, 19), 'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2': ('HOLDS', 2, 5),
        'z_Z3': ('HOLDS', 2, 5),
    },
    ('t135', 'ja'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 2, 6), 'r0_X1': ('HOLDS', 3, 12),
        'r0_X2': ('HOLDS', 4, 19), 'r0_X3': ('HOLDS', 4, 19), 'r0_X4': ('HOLDS', 3, 11),
        'r1_X0': ('HOLDS', 2, 6), 'r1_X1': ('HOLDS', 3, 12), 'r1_X2': ('HOLDS', 4, 19),
        'r1_X3': ('HOLDS', 3, 11), 'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2':
        ('HOLDS', 2, 5), 'z_Z3': ('HOLDS', 2, 5), 'z_Z4': ('HOLDS', 2, 5), 'z_Z5': ('HOLDS',
        2, 5), 'z_Z6': ('HOLDS', 2, 5), 'z_Z7': ('HOLDS', 2, 5),
    },
    ('t135', 'separate'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 7, 83), 'r0_X1': ('HOLDS', 2, 2),
        'r0_X2': ('HOLDS', 2, 2), 'r0_X3': ('HOLDS', 2, 2), 'r0_X4': ('HOLDS', 2, 2),
        'r1_X0': ('HOLDS', 5, 49), 'r1_X1': ('HOLDS', 2, 2), 'r1_X2': ('HOLDS', 2, 2),
        'r1_X3': ('HOLDS', 2, 2), 'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2':
        ('HOLDS', 2, 5), 'z_Z3': ('HOLDS', 2, 5), 'z_Z4': ('HOLDS', 2, 5), 'z_Z5': ('HOLDS',
        2, 5), 'z_Z6': ('HOLDS', 2, 5), 'z_Z7': ('HOLDS', 2, 5),
    },
    ('t407', 'ja'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'c0_C6': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 2, 6), 'r0_X1': ('HOLDS', 3, 12),
        'r0_X2': ('HOLDS', 4, 19), 'r0_X3': ('HOLDS', 4, 19), 'r0_X4': ('HOLDS', 3, 11),
        'v0_S0': ('HOLDS', 10, 381), 'v0_S1': ('HOLDS', 2, 5), 'v0_S10': ('HOLDS', 2, 5),
        'v0_S11': ('HOLDS', 2, 5), 'v0_S2': ('HOLDS', 2, 5), 'v0_S3': ('HOLDS', 2, 5),
        'v0_S4': ('HOLDS', 2, 5), 'v0_S5': ('HOLDS', 2, 5), 'v0_S6': ('HOLDS', 2, 5),
        'v0_S7': ('HOLDS', 2, 5), 'v0_S8': ('HOLDS', 2, 5), 'v0_S9': ('HOLDS', 2, 5),
        'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2': ('HOLDS', 2, 5), 'z_Z3':
        ('HOLDS', 2, 5),
    },
    ('t407', 'separate'): {
        'c0_C0': ('HOLDS', 2, 5), 'c0_C1': ('HOLDS', 2, 5), 'c0_C2': ('HOLDS', 2, 5),
        'c0_C3': ('HOLDS', 2, 5), 'c0_C4': ('HOLDS', 2, 5), 'c0_C5': ('HOLDS', 2, 5),
        'c0_C6': ('HOLDS', 2, 5), 'r0_X0': ('HOLDS', 7, 83), 'r0_X1': ('HOLDS', 2, 2),
        'r0_X2': ('HOLDS', 2, 2), 'r0_X3': ('HOLDS', 2, 2), 'r0_X4': ('HOLDS', 2, 2),
        'v0_S0': ('HOLDS', 10, 381), 'v0_S1': ('HOLDS', 2, 5), 'v0_S10': ('HOLDS', 2, 5),
        'v0_S11': ('HOLDS', 2, 5), 'v0_S2': ('HOLDS', 2, 5), 'v0_S3': ('HOLDS', 2, 5),
        'v0_S4': ('HOLDS', 2, 5), 'v0_S5': ('HOLDS', 2, 5), 'v0_S6': ('HOLDS', 2, 5),
        'v0_S7': ('HOLDS', 2, 5), 'v0_S8': ('HOLDS', 2, 5), 'v0_S9': ('HOLDS', 2, 5),
        'z_Z0': ('HOLDS', 2, 5), 'z_Z1': ('HOLDS', 2, 5), 'z_Z2': ('HOLDS', 2, 5), 'z_Z3':
        ('HOLDS', 2, 5),
    },
}


@pytest.mark.parametrize(
    "design, strategy",
    [
        pytest.param(*key, marks=pytest.mark.slow) if key == ("f380", "separate") else key
        for key in PINNED
    ],
)
def test_results_match_the_whole_design_frames(design, strategy):
    ts = TransitionSystem({**failing_designs(), **all_true_designs()}[design])
    verifier = JAVerifier(
        ts,
        VerificationConfig(solver_backend="cdcl", design_name=design),
        local=strategy == "ja",
    )
    verifier.run()
    assert {
        name: (result.status.name, result.frames, result.stats["sat_queries"])
        for name, result in verifier.results.items()
    } == PINNED[design, strategy]
