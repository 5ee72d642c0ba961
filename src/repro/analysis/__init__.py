"""Static analysis for the ``repro`` codebase.

:mod:`repro.analysis.lint` is the AST analysis engine behind
``repro analyze``.  Its per-file rules (RP001–RP005) encode the
disciplines introduced by the shared-SVD kernel and the deterministic
Monte-Carlo plumbing: every factorisation flows through
:class:`repro.tomography.linear_system.LinearSystem`'s kernel in
:mod:`repro.tomography.backends`, RNG state is threaded as explicit
:class:`numpy.random.Generator` parameters, no wall-clock reads outside
``obs/``, no ``assert`` for validation, no silent broad exception
handlers.  Its whole-program rules (RP006 and RP008–RP010) check
cross-module invariants over one parse per file.

The analyzer sits in the top layer of ``layers.toml``: only the CLI
imports it, so no library module pays its import cost.
"""
