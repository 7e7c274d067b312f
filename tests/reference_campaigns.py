"""Five published five-run oscilloscope energy campaigns (Cholesky kernels of
growing size) with their published means and t-based margins of error (95%
confidence, df = 4).  Figures are kept as printed, trailing zeros included,
because their last digit sets the rounding allowance of the acceptance
check.  Each entry is (size, samples, mean, margin of error)."""

REFERENCE_CAMPAIGNS = [
    (1000, ("26.712", "29.644", "27.567", "28.623", "27.453"), "28.000", "1.421"),
    (1500, ("93.514", "91.412", "92.680", "95.338", "86.597"), "91.908", "4.090"),
    (2000, ("196.19", "192.67", "190.57", "193.42", "192.79"), "193.13", "2.507"),
    (2500, ("374.79", "382.81", "381.47", "382.68", "373.81"), "379.11", "5.509"),
    (3000, ("643.40", "652.17", "645.31", "643.32", "649.38"), "646.71", "4.860"),
]
