//! Seeded typestate violation: a job drops the connection it took out
//! of its cell without deregistering it, so the conns map keeps the
//! entry and `open_conns` never comes down.

impl Shared {
    /// SEEDED(reactor-conn-accounting): the `!keep` exit returns with
    /// the connection taken — neither rested nor deregistered.
    pub fn run(&self, cell: &Cell) {
        let Some(mut conn) = cell.start_running() else {
            return;
        };
        loop {
            match conn.pump() {
                Pump::Ready => {
                    if !conn.handle() {
                        return;
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
