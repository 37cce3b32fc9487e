"""Tour of the neat-liquid dielectric models.

Loads the packaged reference liquids, evaluates their complex permittivity
on a THz grid, and shows the model file format by parsing one from a string.

Run:  python3 demos/01_dielectric_models.py
"""

import numpy as np

from impostoron import (
    eval_neat,
    load_liquid_file,
    loads_liquid,
    validity_range,
)
from impostoron.cli import data_dir

liquids = {
    stem: load_liquid_file(data_dir() / f"{stem}.liq")
    for stem in ("ipa", "eg", "water", "dispersionless")
}

print("packaged reference liquids")
print("--------------------------")
for stem, model in liquids.items():
    lo, hi = validity_range(model)
    print(f"{stem:15s} name={model.name!r}  valid {lo:g}..{hi:g} THz")
    if model.terms:
        for delta, tau in model.terms:
            print(f"{'':15s}   relaxation term: delta_eps={delta:g}, tau={tau:g} ps")
    else:
        print(f"{'':15s}   no relaxation terms (pure eps_inf background)")

print()
print("neat permittivity of water across the band")
print("nu_THz    eps'        eps''")
for nu in np.linspace(0.2, 2.0, 7):
    eps = eval_neat(liquids["water"], float(nu))
    print(f"{nu:5.2f}   {eps.real:9.4f}   {eps.imag:9.4f}")

# the static limit of a Debye model is eps_inf + sum(delta_eps)
eps_static = eval_neat(liquids["water"], 1e-9)
print(f"\nstatic limit of water: {eps_static.real:.2f} (tabulated value 81)")

print()
print("model files are small key = value texts; tabulated data also works:")
text = """\
name = toy glycerol
type = table
columns = nu_THz, eps_real, eps_imag
0.2, 4.10, 0.90
1.0, 3.40, 0.55
2.0, 3.05, 0.30
"""
toy = loads_liquid(text, source="<demo>")
print(f"parsed {toy.name!r}: eps(0.6 THz) = {eval_neat(toy, 0.6):.4f}"
      " (linear interpolation between rows)")
