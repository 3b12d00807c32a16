package netem

// Pipeline chains boxes in series: a packet sent to the pipeline traverses
// every box in order before reaching the pipeline's sink. An empty pipeline
// passes trains through undivided at the instant they arrive.
//
// Shell nesting in Mahimahi (`mm-delay 50 mm-link up down -- app`)
// corresponds to appending each inner shell's boxes to the pipelines of both
// directions.
type Pipeline struct {
	port
	boxes []Box
}

// NewPipeline chains the given boxes in order.
func NewPipeline(boxes ...Box) *Pipeline {
	p := &Pipeline{}
	for _, b := range boxes {
		p.Append(b)
	}
	return p
}

// Append adds a box at the downstream end of the pipeline (just before the
// sink). Must not be called after traffic has started flowing. Boxes are
// chained through their batch sinks, so a train formed anywhere upstream
// continues through the whole pipeline.
func (p *Pipeline) Append(b Box) {
	if n := len(p.boxes); n > 0 {
		p.boxes[n-1].SetBatchSink(b.SendBatch)
	}
	b.SetBatchSink(p.emit)
	p.boxes = append(p.boxes, b)
}

// Send implements Box.
func (p *Pipeline) Send(pkt *Packet) { p.SendBatch(p.one(pkt)) }

// SendBatch implements Box.
func (p *Pipeline) SendBatch(pkts []*Packet) {
	if len(p.boxes) == 0 {
		p.emit(pkts)
		return
	}
	p.boxes[0].SendBatch(pkts)
}

// Stats implements Box: aggregate view where Arrived counts ingress to the
// first box and Delivered counts egress from the last.
func (p *Pipeline) Stats() BoxStats {
	st := BoxStats{Delivered: p.stats.Delivered, DeliveredBytes: p.stats.DeliveredBytes}
	if len(p.boxes) == 0 {
		st.Arrived, st.ArrivedBytes = st.Delivered, st.DeliveredBytes
		return st
	}
	first := p.boxes[0].Stats()
	st.Arrived, st.ArrivedBytes = first.Arrived, first.ArrivedBytes
	for _, b := range p.boxes {
		st.Dropped += b.Stats().Dropped
	}
	return st
}

// Boxes returns the boxes in upstream-to-downstream order, for inspection.
func (p *Pipeline) Boxes() []Box { return p.boxes }
