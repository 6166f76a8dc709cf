"""
Storing a probe pulse and reading it out on a second channel
============================================================

A weak Gaussian probe is compressed into a medium by a strong write
control, the control is switched off to freeze the pulse as a ground-state
coherence, and a read control on a different transition converts the
stored excitation into a new optical field.  This script runs the
protocol once and compares three views of the same physics: the
closed-form channel theory, the exact frequency-domain propagator, and
the time-domain Maxwell-Bloch integration.
"""

import numpy as np

from eitconvert import (
    GaussianPulse,
    SpectralGrid,
    UnitSystem,
    control_for_eta,
    converted_field_exact,
    converted_spectrum,
    gaussian_probe_spectrum,
    pulse_energy,
    read_channel,
    run_original_readout,
    run_protocol,
    single_lambda_scheme,
    stored_coherence_exact,
    timeline_for_protocol,
    total_efficiency,
    write_channel,
)

# Internal units: the write-transition linewidth is 1 and the cell length
# is 1.  UnitSystem converts a microsecond pulse duration for a cesium
# linewidth of 2 pi x 4.56 MHz.
units = UnitSystem(gamma_2pi_MHz=4.56)
T_p = units.time_in(0.2)
eta, kappa = 4.0, 1.35

# The conversion scheme: probe optical depth 100, converted-channel depth
# 1000, so the read transition couples ten times more strongly.
scheme = single_lambda_scheme(D_p=100.0, D_c=1000.0)

# Pick the write control so the pulse-compression parameter eta is 4 and
# match the read control to the same group delay.
Omega_w = control_for_eta(scheme, eta, T_p)
Omega_r = np.sqrt(10.0) * Omega_w

# 1. Closed-form channel theory.
write = write_channel(scheme, Omega_w, T_p, kappa)
read = read_channel(scheme, Omega_r, write)
report = total_efficiency(scheme, write, read)
model = converted_spectrum(scheme, write, read)
print("write channel: delay %.3f, group velocity %.4f, broadening %.4f"
      % (write.T_d, write.v_w, write.beta_w(0.5)))
print("theory:   xi_total %.4f  xi_relative %.4f"
      % (report.xi_total, report.xi_relative))

# 2. Exact spectral propagation of the linearized equations.
#    Storage runs on the write grid, the read-out on a grid sized by the
#    read channel.
write_grid = SpectralGrid.for_protocol(scheme, Omega_w, T_p)
read_grid = SpectralGrid.for_protocol(scheme, Omega_w, T_p, Omega_r)
probe = gaussian_probe_spectrum(write_grid, T_p)
stored = stored_coherence_exact(scheme, Omega_w, probe, kappa * T_p,
                                write_grid)
res = converted_field_exact(scheme, stored, Omega_r, read_grid)
print("spectral: xi_total %.4f" % (res.energy / pulse_energy(T_p)))

# 3. Time-domain Maxwell-Bloch run of the full switching protocol,
#    plus a companion run that reads out on the original channel so the
#    relative efficiency has its reference.  The companion continues from
#    the main record at the read turn-on: the write phase is the same.
pulse = GaussianPulse(T_p=T_p)
timeline = timeline_for_protocol(Omega_w, Omega_r, T_p, kappa)
record = run_protocol(scheme, pulse, timeline)
companion = run_original_readout(scheme, record)
xi_total = record.energies["converted"] / record.energies["input"]
xi_rel = record.energies["converted"] / companion.energies["converted"]
print("mb:       xi_total %.4f  xi_relative %.4f" % (xi_total, xi_rel))

# The converted pulse leaves faster than it entered: the read channel is
# deeper, so the retrieved pulse is compressed and its peak grows.
i = int(np.argmax(np.abs(record.converted_exit)))
print("converted peak %.3f at %.3f after read switch-on (model %.3f at %.3f)"
      % (np.abs(record.converted_exit[i]),
         record.t_exit[i] - timeline.t_r,
         model.peak_amplitude, model.t0))
