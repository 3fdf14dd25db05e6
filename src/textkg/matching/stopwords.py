"""Fixed English stopword list used by the overlap-controlled
dataset resplit and the overlap report.

Placeholder participant names (personx/persony/personz) are stopwords:
nearly every social/event head contains one, so excluding them is what
makes zero-overlap splits constructible at all.
"""

from __future__ import annotations

STOPWORDS: frozenset[str] = frozenset("""
a about above after again against all am an and any are aren as at be
because been before being below between both but by can cannot could
couldn did didn do does doesn doing don down during each few for from
further had hadn has hasn have haven having he her here hers herself him
himself his how i if in into is isn it its itself just ll me mightn more
most mustn my myself needn no nor not now o of off on once only or other
our ours ourselves out over own re s same shan she should shouldn so some
such t than that the their theirs them themselves then there these they
this those through to too under until up ve very was wasn we were weren
what when where which while who whom why will with won would wouldn y you
your yours yourself yourselves
also always among anything around away back came come comes even every
everything get gets getting give given goes going gone got gotten him his
how however keep kept let lets like made make makes making many may maybe
might much must never new next often one onto put really see seen shall
since something soon still take taken takes taking thing things took upon
us use used using want wanted wants way well went yet
personx persony personz
""".split())
