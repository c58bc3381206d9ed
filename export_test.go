package grb

// withChunk sets a context's chunk, the minimum work per thread: a parallel
// section of a kernel gets one worker per n units of the work it counts —
// stored entries read, products formed — up to the thread budget, and below
// 2n runs on the calling goroutine alone. withChunk(1) forks wherever the
// budget allows, which is how a test on a toy input reaches the parallel
// paths; zero inherits. Outside tests every context has the default,
// sparse.DefaultGrain.
func withChunk(n int) ContextOption {
	return func(c *Context) { c.chunk = n }
}

// WithTestChunk is withChunk for the external test package.
var WithTestChunk = withChunk
