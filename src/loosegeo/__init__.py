"""Exact toolkit for loose-graph incidence schemes over small finite fields."""
