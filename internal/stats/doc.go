// Package stats provides the descriptive-statistics substrate the paper's
// analysis relies on: means, quantiles, dispersion, boxplot summaries,
// ordinary-least-squares regression, and Pearson and Spearman
// correlation.
//
// Go has no pandas/scipy equivalent, so this package reimplements the
// small, well-defined subset needed by the longitudinal analysis. All
// functions treat NaN inputs explicitly: aggregations skip NaNs (matching
// pandas' default) unless documented otherwise, and functions return NaN
// rather than panicking on empty input.
package stats
