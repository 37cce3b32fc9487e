"""synth -> extract on the 4096-delay pump-probe grid, one noise seed per map.

Criterion 8 of test_acceptance.py runs on 512 delays. On 4096 delays a
resonance that dies within 10 ps lives in the first 1-3 % of the record
after the onset, so only a window that weights the record from its onset
finds it among the noise of the remaining ~3,500 samples. The grid is the
one `synth --map` lays out for --n 4096 (n/8 delays before zero, 0.1 ps
apart) with 128 probe columns of 0.05 ps and the step amplitude it sets;
each liquid is doped at 15/25/40/60 uM with 25 noise seeds each, at 20 dB.
The bound is criterion 8's: at least 95 of the 100 maps within one spectral
bin of find_nu0's nu0.
"""

import numpy as np
import pytest

from impostoron.errors import ImpostoronError
from impostoron.mixing import Concentration, DopedLiquid
from impostoron.polaron import find_nu0
from impostoron.signal import (
    StepModel,
    add_noise,
    extract,
    gaussian_probe,
    synth_map,
    synth_oscillation,
)

TAU = (np.arange(4096) - 4096 // 8) * 0.1
TGRID = (np.arange(128) - 64) * 0.05
CES = (15.0, 25.0, 40.0, 60.0)  # uM
SEEDS = 25

WATER_OFFSET = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: water's loss maximum lies ~0.84 bins below nu0, "
    "so a peak picker on its windowed modulus misses nu0 on most noisy maps",
)


@pytest.mark.parametrize("name", ["ipa", "eg", pytest.param("water", marks=WATER_OFFSET)])
def test_extraction_on_4096_delays(liquids, name):
    probe = gaussian_probe(TGRID)
    hits = 0
    for ce in CES:
        doped = DopedLiquid(liquids[name], Concentration.from_micromolar(ce))
        nu0 = find_nu0(doped, (0.1, 3.0), 1e-9).nu0
        osc = synth_oscillation(doped, TAU)
        step = StepModel(amplitude=float(np.max(np.abs(osc.values))), rise_time=1.0, onset=0.0)
        fmap = synth_map(doped, probe, step, TAU)
        for k in range(SEEDS):
            try:
                res = extract(add_noise(fmap, 20.0, int(1000 * ce) + k))
            except ImpostoronError:  # a map with no peak misses
                continue
            freqs = res.spectrum.frequencies
            hits += abs(res.peak.peak_frequency - nu0) <= freqs[1] - freqs[0]
    assert hits >= 95, f"{hits}/100"
