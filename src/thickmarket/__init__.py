"""Monthly search-and-matching housing market equilibrium and seasonality tests."""

__version__ = "0.1.0"
