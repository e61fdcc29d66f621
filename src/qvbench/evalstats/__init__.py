"""Effectiveness metrics and the statistical analysis layer.

Import from the submodules: `agreement`, `anova`, `matrix`, `metrics`,
`special` and `tukey`. Only `anova` and `tukey`, and `agreement` through
them, load numpy.
"""
