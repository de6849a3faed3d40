"""udscheme: UD v1 annotation-scheme rewrites, a greedy arc-eager parser,
and learnability metrics for comparing how well each scheme parses."""
