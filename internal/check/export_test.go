package check

// OuterParallelOf is OuterParallel over a given per-nest decision in
// place of absint.Result.Splits: the seeded fault forces a split.
var OuterParallelOf = outerParallel
