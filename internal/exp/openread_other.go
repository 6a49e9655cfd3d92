//go:build !linux

package exp

import "syscall"

// openRead opens the NUL-terminated path read-only and close-on-exec.
func openRead(path []byte) (int, error) {
	return syscall.Open(string(path[:len(path)-1]), syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
}
