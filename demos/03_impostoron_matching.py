"""Making two different liquids resonate alike: impostoron matching.

The crossing frequency nu0 is set by the electron concentration, so any two
liquids can be tuned to the same nu0 (a frequency match). Whether the line
*shapes* also agree is a separate question: the width is governed by the
host's loss and dispersion, and only special pairs admit a concentration
pair that equalizes it (a profile match, the "impostoron").

Run:  python3 demos/03_impostoron_matching.py
"""

from impostoron import (
    DebyeModel,
    NoProfileMatchError,
    ce_for_nu0,
    load_liquid_file,
    match_frequency,
    match_profiles,
)
from impostoron.cli import data_dir

liquids = {
    stem: load_liquid_file(data_dir() / f"{stem}.liq")
    for stem in ("ipa", "eg", "water")
}

print("concentration that places the crossing at 0.7 THz")
for stem, model in liquids.items():
    ce = ce_for_nu0(model, 0.7)
    print(f"  {stem:6s} ce = {ce.micromolar:7.3f} uM")

d1 = DebyeModel("eps 2.449", 2.449, ())
d2 = DebyeModel("eps 3.0", 3.0, ())
diff = ce_for_nu0(d1, 0.7).mol_per_m3 - ce_for_nu0(d2, 0.7).mol_per_m3
print(f"\nclosed-form concentration difference between two dispersionless")
print(f"hosts (eps 2.449 vs 3.0) at 0.7 THz: {diff:+.4e} mol/m^3")
print("the sign says the higher-eps host needs MORE electrons, since its")
print("local-field factor starts closer to the singularity\n")

sol = match_frequency(liquids["ipa"], liquids["water"], 0.7)
print("frequency match, isopropanol vs water at 0.7 THz")
print(f"  ce = {sol.ce_1.micromolar:.3f} / {sol.ce_2.micromolar:.3f} uM, "
      f"residual {sol.freq_residual:.2e} THz")
print(f"  widths stay unequal: profile residual {sol.profile_residual:+.2f} "
      f"(B/eps'' difference), matched = {sol.profile_matched}")

# a profile match needs the width terms to cross inside the band; this
# constructed pair differs only in relaxation strength and admits one
a = DebyeModel("weak", 2.2, ((0.4, 0.15),))
b = DebyeModel("strong", 2.2, ((1.6, 1.0),))
sol = match_profiles(a, b, (0.2, 2.0))
print("\nprofile match for a constructed pair")
print(f"  shared nu0 = {sol.nu0:.6f} THz")
print(f"  ce = {sol.ce_1.micromolar:.3f} / {sol.ce_2.micromolar:.3f} uM")
print(f"  profile residual {sol.profile_residual:+.2e}, "
      f"matched = {sol.profile_matched}")

print("\nwater against an alcohol has no impostoron in the band:")
try:
    match_profiles(liquids["ipa"], liquids["water"], (0.2, 2.0))
except NoProfileMatchError as exc:
    print(f"  NoProfileMatchError: {exc}")
