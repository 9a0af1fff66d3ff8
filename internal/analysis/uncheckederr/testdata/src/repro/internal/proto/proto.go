// Package proto is a miniature of the real package: just the message
// interface the endpoint signature mentions.
package proto

type Message interface{}
