//! Known-good twin of the seeded reactor fixture: every exit of the job
//! either rests the connection in its cell again or deregisters it —
//! including the let-else shape (a cell closed while the job was
//! queued: nothing was taken) the real reactor uses.

impl Shared {
    pub fn run(&self, cell: &Cell) {
        let Some(mut conn) = cell.start_running() else {
            return;
        };
        loop {
            match conn.pump() {
                Pump::Ready => {
                    if !conn.handle() {
                        break;
                    }
                }
                Pump::Idle => {
                    cell.slot.lock().rest(conn, Phase::Parked);
                    return;
                }
                Pump::Closed => break,
            }
        }
        self.deregister(cell);
    }

    fn deregister(&self, cell: &Cell) {
        let mut st = self.state.lock();
        st.conns.remove(&cell.id);
        drop(st);
        self.open_conns.dec();
    }
}
