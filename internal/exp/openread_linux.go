package exp

import (
	"syscall"
	"unsafe"
)

// atFDCWD is Linux's AT_FDCWD: openat resolves a relative path against
// the working directory.
const atFDCWD = -0x64

// openRead opens the NUL-terminated path read-only and close-on-exec. It
// passes path to openat as it is, where syscall.Open would copy a string
// path into a fresh NUL-terminated buffer.
func openRead(path []byte) (int, error) {
	dirfd := atFDCWD
	fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd),
		uintptr(unsafe.Pointer(&path[0])), uintptr(syscall.O_RDONLY|syscall.O_CLOEXEC), 0, 0, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}
