// Package checkpoint is the second guarded package.
package checkpoint

func Save(dir string) (int, error) { return 0, nil }
