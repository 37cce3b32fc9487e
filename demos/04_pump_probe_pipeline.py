"""Synthetic two-dimensional pump-probe signal and the extraction pipeline.

Builds the field map a THz pump-probe scan of photo-doped water would
record: a step-like background from the injected electrons plus a decaying
oscillation at the polaron frequency along the pump-probe delay. Then runs
the blind extraction chain (filter, cut, step removal, windowed spectrum,
peak fit) on a noisy copy and compares against the known resonance.

Run:  python3 demos/04_pump_probe_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from impostoron import (
    Concentration,
    DopedLiquid,
    StepModel,
    add_noise,
    extract,
    find_nu0,
    gaussian_probe,
    load_liquid_file,
    read_map_csv,
    synth_map,
    synth_oscillation,
    write_map_csv,
)
from impostoron.cli import data_dir

water = load_liquid_file(data_dir() / "water.liq")
doped = DopedLiquid(water, Concentration.from_micromolar(40.0))
res = find_nu0(doped, (0.1, 3.0), 1e-9)
print(f"ground truth: nu0 = {res.nu0:.6f} THz at 40 uM in water")

# delay axis: 51.2 ps at 0.1 ps steps, with some negative delay before the
# pump; probe axis: 6.4 ps window around the probe pulse
tau = (np.arange(512) - 64) * 0.1
t = (np.arange(64) - 32) * 0.1

osc = synth_oscillation(doped, tau)
amp = float(np.max(np.abs(osc.values)))
step = StepModel(amplitude=amp, rise_time=1.0, onset=0.0)
fmap = synth_map(doped, gaussian_probe(t), step, tau)
print(f"synthesized map: {fmap.values.shape[0]} delays x "
      f"{fmap.values.shape[1]} probe samples")

noisy = add_noise(fmap, 20.0, 7)
result = extract(noisy)
print("\nextraction from the 20 dB noisy map")
print(f"  step fit: amplitude {result.step.amplitude:.4f} "
      f"(true {amp:.4f}), rise {result.step.rise_time:.2f} ps")
print(f"  spectral peak: {result.peak.peak_frequency:.4f} THz "
      f"(true {res.nu0:.4f}), fwhm {result.peak.fwhm:.4f} THz")
bin_width = float(result.spectrum.frequencies[1] - result.spectrum.frequencies[0])
print(f"  off by {abs(result.peak.peak_frequency - res.nu0) * 1e3:.1f} mTHz "
      f"with {bin_width * 1e3:.1f} mTHz bins")

# the oscillation dies within a few ps in water; read the 1/e time off the
# clean delay trace
mag = np.abs(osc.values)
half = tau <= (tau[-1] + 0.1) / 2  # envelope is mirrored near the window end
above = np.nonzero(mag[half] > mag.max() / np.e)[0]
print(f"\n1/e decay of the water oscillation: {tau[half][above[-1]]:.1f} ps")

# maps round-trip through CSV exactly
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_map.csv"
    with open(path, "w") as fh:
        write_map_csv(noisy, fh)
    with open(path) as fh:
        again = read_map_csv(fh)
print(f"CSV round trip exact: {np.array_equal(again.values, noisy.values)}")
