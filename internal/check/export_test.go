package check

// OuterParallelOf is OuterParallel over a given per-nest decision in
// place of gogen.Splits: the seeded fault forces a split.
var OuterParallelOf = outerParallel
