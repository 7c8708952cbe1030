package proctarget

// thread is the one OS thread that drives a Target's zygote and
// children: a goroutine locked to it for good, running what do hands it.
type thread struct {
	calls chan func()
	done  chan struct{}
}

func startThread() *thread {
	th := &thread{calls: make(chan func()), done: make(chan struct{})}
	go func() {
		// Never unlocked: the OS thread ends with the goroutine.
		lockThread()
		defer close(th.done)
		for f := range th.calls {
			if f == nil {
				return
			}
			f()
		}
	}()
	return th
}

// do runs f on the thread and re-raises a panic of f on the caller's
// goroutine, where the campaign's recovery sees it. False when the
// thread has ended.
func (th *thread) do(f func()) bool {
	var p any
	finished := make(chan struct{})
	call := func() {
		defer func() {
			p = recover()
			close(finished)
		}()
		f()
	}
	select {
	case th.calls <- call:
	case <-th.done:
		return false
	}
	<-finished
	if p != nil {
		panic(p)
	}
	return true
}

// stop ends the thread once the calls before it have run.
func (th *thread) stop() {
	select {
	case th.calls <- nil:
	case <-th.done:
	}
	<-th.done
}
