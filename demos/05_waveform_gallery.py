"""
Slow light and converted pulse shapes
=====================================

Two waveform stories at optical depth 500.  First, with the write control
left on, the probe simply crawls through the cell and exits delayed and
slightly broadened.  Second, the full protocol retrieves the stored pulse
with read controls of different strengths: a weak read control stretches
the converted pulse, a strong one compresses it.  The script writes every
curve as CSV into demos/output/ and prints a peak/width table against the
closed-form model.

Runtime is a few seconds; the four Maxwell-Bloch runs dominate.
"""

import pathlib

import numpy as np

from eitconvert import (
    ControlTimeline,
    GaussianPulse,
    UnitSystem,
    control_for_eta,
    converted_spectrum,
    read_channel,
    run_protocol,
    single_lambda_scheme,
    timeline_for_protocol,
    write_channel,
)
from eitconvert.arrayio import write_csv

units = UnitSystem(gamma_2pi_MHz=4.56)
T_p = units.time_in(0.2)
eta, kappa, D = 4.0, 1.35, 500.0
out = pathlib.Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

scheme = single_lambda_scheme(D_p=D, D_c=D)
Omega_w = control_for_eta(scheme, eta, T_p)
write = write_channel(scheme, Omega_w, T_p, kappa)
pulse = GaussianPulse(T_p=T_p)


def dump(name, t, field):
    write_csv(out / name, ["t_us", "intensity"],
              [units.time_out(t), np.abs(field) ** 2])


# 1. Slow light: constant control, no storage.
record = run_protocol(scheme, pulse, ControlTimeline(Omega_w0=Omega_w))
dump("slow_light.csv", record.t_exit, record.probe_exit)
i = int(np.argmax(np.abs(record.probe_exit)))
print("slow light: delay %.3f us (model %.3f us), peak %.3f of input"
      % (units.time_out(record.t_exit[i]), units.time_out(write.T_d),
         np.abs(record.probe_exit[i])))

# 2. Conversion at three read-control strengths.
print()
print("%14s  %10s  %10s  %10s  %10s" % ("read control", "peak mb",
                                        "peak model", "fwhm mb",
                                        "fwhm model"))
for ratio in (0.5, 1.0, 2.0):
    Omega_r = ratio * Omega_w
    timeline = timeline_for_protocol(Omega_w, Omega_r, T_p, kappa)
    rec = run_protocol(scheme, pulse, timeline)
    t = rec.t_exit - timeline.t_r
    dump("converted_ratio_%s.csv" % str(ratio).replace(".", "p"),
         t, rec.converted_exit)

    read = read_channel(scheme, Omega_r, write)
    model = converted_spectrum(scheme, write, read)
    t_model = model.t0 + np.linspace(-4, 4, 2049) * model.temporal_fwhm
    wave = model.time_waveform(t_model)
    dump("model_ratio_%s.csv" % str(ratio).replace(".", "p"),
         t_model, wave)

    inten = np.abs(rec.converted_exit) ** 2
    half = inten > 0.5 * inten.max()
    fwhm_mb = t[half][-1] - t[half][0]
    inten_m = np.abs(wave) ** 2
    half_m = inten_m > 0.5 * inten_m.max()
    fwhm_model = t_model[half_m][-1] - t_model[half_m][0]
    flags = "  flags: " + "; ".join(read.flags) if read.flags else ""
    print("%14g  %10.4f  %10.4f  %10.3f  %10.3f%s"
          % (ratio, np.sqrt(inten.max()), model.peak_amplitude,
             units.time_out(fwhm_mb), units.time_out(fwhm_model), flags))

print()
print("a read control twice the write control compresses the pulse and")
print("roughly doubles its peak; half the write control stretches it;")
print("the closed-form model drifts for the strongest read control,")
print("where the retrieval is no longer adiabatic")
print("curves written to %s" % out)
