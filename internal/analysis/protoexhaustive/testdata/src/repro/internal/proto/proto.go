// Package proto is a miniature message vocabulary exercising the
// registry self-check: directives naming known components, and one
// naming an unknown component.
package proto

//
//distq:handledby engine
type Data struct{ N int }

//
//distq:handledby coordinator, engine
type Tick struct{}

//
//distq:handledby appserver
type ResultCount struct{ Delta uint64 }

//
//distq:handledby martian
type Alien struct{} // want `proto\.Alien: unknown component "martian"`

//
//distq:handledby engine
type Ghost struct{}
