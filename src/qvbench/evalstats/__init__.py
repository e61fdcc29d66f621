"""Effectiveness metrics and the statistical analysis layer.

Import from the submodules: `agreement`, `anova`, `matrix`, `metrics`,
`special` and `tukey`. All of them are pure Python. Stages load what
they run: `evaluate` loads `metrics`, `report` loads `matrix`, and
`analyze` is the one stage that loads all of them.
"""
