package engines

import "metricdb/internal/store"

// The symbols in this file are kept only because the benchmark module
// (bench/) names them. Nothing else in the module may use them: `make
// compat` fails on any other file that does. ROADMAP item 1a's item-8
// line deletes this file, and with it the Spec field of this type.

// columnSpec is the type of Spec.Columns, which selected a page
// representation when there were two. Pages have one now, and no build
// reads the field.
//
// Deprecated: removed by ROADMAP item 1a (item 8).
type columnSpec = store.ColumnSpec
