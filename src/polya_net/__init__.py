"""Network contagion dynamics driven by super-urn sampling.

Submodules, each importing only those above it:
    errors      exception types and the shared integer, real and cell checks
    output      CSV writing, and a path-or-stream target for every writer
    graph       network topology, generators, spectral radius
    contagion   urn state machine and one-step dynamics
    exact       exact finite-horizon distributions and closed forms
    approx      classical single-urn approximations of node processes
    sis         discrete-time SIS comparator and epidemic threshold
    montecarlo  reproducible trial runner and statistics
    cli         command-line entry point
"""

__version__ = "0.1.0"
