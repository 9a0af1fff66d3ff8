// Package partition is a miniature of the real package: just the node
// identifier the endpoint signature mentions.
package partition

type NodeID string
