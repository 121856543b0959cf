//go:build linux

package storage

import "syscall"

// Datasync flushes the file's data — and the metadata required to read it
// back, such as a grown size — without forcing unrelated metadata like
// timestamps through the filesystem journal. On a file whose blocks are
// already allocated (the commit journal preallocates for exactly this
// reason) a data-only barrier is measurably cheaper than a full fsync.
//
// The descriptor is borrowed through SyscallConn, which holds it open for
// the duration of the call: a concurrent Close waits for the barrier instead
// of releasing a descriptor the barrier is still using, and a Datasync after
// Close fails instead of syncing whatever file reused the descriptor number.
func (d *FileDevice) Datasync() error {
	rc, err := d.f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		for {
			serr = syscall.Fdatasync(int(fd))
			if serr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	return serr
}
