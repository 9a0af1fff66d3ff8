// Package proto is a miniature message vocabulary exercising the
// registry self-checks: directives on registered types, an orphan
// registration, an unknown component, and a directive on a type that
// never travels the wire.
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

// Orphan is registered but directed at nobody.
type Orphan struct{}

//
//distq:handledby martian
type Alien struct{} // want `proto\.Alien: unknown component "martian"`

//
//distq:handledby engine
type Ghost struct{} // want `proto\.Ghost carries a //distq:handledby directive but is missing from the wire-kind table`

type wireCodec struct{}

func control[T any]() wireCodec { return wireCodec{} }

var wireKinds = [...]wireCodec{
	1: control[Data](),
	2: control[Tick](),
	3: control[ResultCount](),
	4: control[Orphan](), // want `proto\.Orphan is in the wire-kind table but carries no //distq:handledby directive`
	5: control[Alien](),
}
