package accounting

// chunkSize is the number of job records per chunk of a JobChunks store
// (about 94 KiB).
const chunkSize = 256

// JobChunks is an append-only store of job records held in fixed chunks of
// 256. Appending never re-copies a record already stored, and the slack
// stays under one chunk. Central keeps the job records it has not yet
// sealed in one; the stream processor keeps its accepted job records in
// another. The zero value is an empty store.
type JobChunks struct {
	chunks []*[chunkSize]JobRecord
	n      int
}

// Len returns the number of records stored.
func (s *JobChunks) Len() int { return s.n }

// At returns the i-th record stored, in append order.
func (s *JobChunks) At(i int) *JobRecord { return &s.chunks[i/chunkSize][i%chunkSize] }

// Append stores a copy of r.
func (s *JobChunks) Append(r *JobRecord) { *s.next() = *r }

// next extends the store by one zero record and returns it.
func (s *JobChunks) next() *JobRecord {
	if s.n == len(s.chunks)*chunkSize {
		s.chunks = append(s.chunks, new([chunkSize]JobRecord))
	}
	s.n++
	return s.At(s.n - 1)
}

// truncate shortens the store to n records. It zeroes the slots it drops
// and releases the chunks left empty, so no dropped record stays reachable.
func (s *JobChunks) truncate(n int) {
	for i := n; i < s.n; i++ {
		*s.At(i) = JobRecord{}
	}
	keep := (n + chunkSize - 1) / chunkSize
	clear(s.chunks[keep:])
	s.chunks = s.chunks[:keep]
	s.n = n
}

// moveTo appends the stored records to dst and empties the store. Into an
// empty dst it allocates exactly Len records; onto a non-empty one it
// grows dst as append does, so repeated moves stay amortized linear.
func (s *JobChunks) moveTo(dst []JobRecord) []JobRecord {
	if len(dst) == 0 {
		dst = make([]JobRecord, 0, s.n)
	}
	for i, c := range s.chunks {
		dst = append(dst, c[:min(chunkSize, s.n-i*chunkSize)]...)
	}
	s.chunks, s.n = nil, 0
	return dst
}
