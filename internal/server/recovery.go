package server

import "fmt"

// recoverJobs scans every tenant database in the data directory at boot
// and re-enqueues each job row still marked pending — campaigns that
// were queued, running, or mid-flight when the previous daemon died.
// Opening the databases replays their WALs, so the recovered jobs
// resume from what is durable (execute reads the completed set from the
// durable end records and the plan-hash guard from the stored cursor,
// exactly like `goofi resume`).
func (s *Server) recoverJobs() error {
	tenants, err := s.tenants.Tenants()
	if err != nil {
		return err
	}
	for _, tenant := range tenants {
		_, db, release, err := s.tenants.Acquire(tenant)
		if err != nil {
			return fmt.Errorf("server: recover tenant %s: %w", tenant, err)
		}
		specs, err := pendingJobRows(db)
		release()
		if err != nil {
			return fmt.Errorf("server: recover tenant %s: %w", tenant, err)
		}
		for _, spec := range specs {
			j := &job{spec: *spec, recover: true, state: StatePending}
			if err := s.enqueue(j); err != nil {
				// The queue is sized for steady-state admission; a boot
				// backlog beyond it stays pending on disk and is picked
				// up by a later restart rather than lost.
				break
			}
		}
	}
	return nil
}
