"""Redundancy-based factoid question answering with budgeted querying.

The pipeline: a question becomes a weighted set of query rewrites, a search
backend returns snippets per rewrite, n-gram mining/filtering/tiling
composes ranked answers, and learned models decide how many rewrites are
worth submitting, or whether to abstain.
"""
