"""Spectral solver and validity diagnostics for isentropic compressible
flow with density-degenerate viscosities and vacuum far field.

The pipeline: reformulate in the pressure and viscosity proxy variables,
solve a frozen-coefficient linearized system per Picard sweep, drive the
regularization parameter down a continuation schedule, and audit the result
against the a priori ledger, the horizon ladder, conservation, the vacuum
acceleration clause, and an independent primitive-variable oracle.

The package exports nothing: callers import its modules (vacflow.cli,
vacflow.fields, ...), so importing the package alone loads none of them.
"""
