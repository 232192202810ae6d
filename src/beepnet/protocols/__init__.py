"""Building-block protocols on top of the round engine."""
