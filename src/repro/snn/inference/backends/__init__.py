"""The numpy kernels the fused inference engines execute a plan with.

:mod:`~repro.snn.inference.backends.ops_numpy` holds one kernel per plan
spec and :class:`~repro.snn.inference.backends.ops_numpy.NumpyBackend`,
whose shared instance the engines call.  The float64 results are
byte-identical to the autograd forward and the sequential fault oracle.
"""
