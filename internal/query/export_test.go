package query

// Exported to the external-package fuzz target, which imports plan and so
// cannot live in this package.
var (
	PaperQueries = paperQueries
	TestRegistry = testRegistry
)
