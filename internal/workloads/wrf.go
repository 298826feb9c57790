package workloads

import (
	"avr/internal/compress"
	"avr/internal/mem"
	"avr/internal/sim"
)

// WRF is the weather-forecasting proxy (SPEC CPU2006 481.wrf): a
// multi-field 2D atmospheric kernel over geographically ordered data.
// Matching the paper, only ~15% of the working set — the geo-ordered
// temperature field and its double buffer — is approximable; humidity,
// winds, pressure and the prognostic fields stay exact, so AVR's
// leverage is limited exactly as reported.
type WRF struct {
	n     int
	iters int
	// The approximable fields: temperature and its double buffer.
	temp, tnext uint64
	// Exact fields: humidity and its double buffer, pressure, wind u/v,
	// terrain, and five auxiliary prognostic fields that inflate the
	// exact share of the footprint.
	hum, hnext           uint64
	press, u, v, terrain uint64
	aux                  [5]uint64
}

// NewWRF creates the benchmark.
func NewWRF() *WRF { return &WRF{} }

// Name implements Workload.
func (w *WRF) Name() string { return "wrf" }

func (w *WRF) idx(i, j int) uint64 { return uint64(i*w.n+j) * 4 }

// Setup implements Workload.
func (w *WRF) Setup(sys *sim.System, sc Scale) { setup(w, sys.Space, sc) }

func (w *WRF) layout(s *mem.Space, sc Scale) {
	switch sc {
	case ScaleSmall:
		w.n, w.iters = 192, 8 // 13 fields × 144 kB ≈ 1.9 MiB, 2/13 approx
	default:
		w.n, w.iters = 384, 8 // ≈ 7.7 MiB
	}
	fieldBytes := uint64(w.n*w.n) * 4
	w.temp = s.AllocApprox(fieldBytes, compress.Float32)
	w.tnext = s.AllocApprox(fieldBytes, compress.Float32)
	w.hum = s.Alloc(fieldBytes, 64)
	w.hnext = s.Alloc(fieldBytes, 64)
	w.press = s.Alloc(fieldBytes, 64)
	w.u = s.Alloc(fieldBytes, 64)
	w.v = s.Alloc(fieldBytes, 64)
	w.terrain = s.Alloc(fieldBytes, 64)
	for k := range w.aux {
		w.aux[k] = s.Alloc(fieldBytes, 64)
	}
}

// fill writes smooth terrain-correlated initial fields.
func (w *WRF) fill(s *mem.Space) {
	r := newRNG(20260704)
	for i := 0; i < w.n; i++ {
		for j := 0; j < w.n; j++ {
			at := w.idx(i, j)
			x, y := float64(i)/float64(w.n), float64(j)/float64(w.n)
			elev := 400*x*(1-x) + 300*y*y // smooth synthetic orography
			s.StoreF32(w.terrain+at, float32(elev))
			s.StoreF32(w.temp+at, float32(288-0.0065*elev+r.norm()*0.3))
			s.StoreF32(w.hum+at, float32(0.6-0.0002*elev+r.float()*0.05))
			s.StoreF32(w.press+at, float32(1013-0.12*elev))
			s.StoreF32(w.u+at, float32(3+2*y))
			s.StoreF32(w.v+at, float32(1-2*x))
			for k := range w.aux {
				s.StoreF32(w.aux[k]+at, float32(r.float()))
			}
		}
	}
}

// Run implements Workload: advection-diffusion of temperature and
// humidity by the wind field, with a pressure coupling term; the exact
// auxiliary fields are read every step (they model the prognostic state
// WRF keeps exact).
func (w *WRF) Run(sys Core) {
	n := w.n
	const dt = 0.2
	for it := 0; it < w.iters; it++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				at := w.idx(i, j)
				t0 := sys.LoadF32(w.temp + at)
				h0 := sys.LoadF32(w.hum + at)
				uu := sys.LoadF32(w.u + at)
				vv := sys.LoadF32(w.v + at)
				p := sys.LoadF32(w.press + at)
				// Upwind advection.
				ti := w.idx(i-1, j)
				tj := w.idx(i, j-1)
				if uu < 0 {
					ti = w.idx(i+1, j)
				}
				if vv < 0 {
					tj = w.idx(i, j+1)
				}
				tup := sys.LoadF32(w.temp + ti)
				tleft := sys.LoadF32(w.temp + tj)
				hup := sys.LoadF32(w.hum + ti)
				hleft := sys.LoadF32(w.hum + tj)
				// Exact prognostic state participates every step.
				var axs float32
				for k := range w.aux {
					axs += sys.LoadF32(w.aux[k] + at)
				}
				au := uu
				if au < 0 {
					au = -au
				}
				av := vv
				if av < 0 {
					av = -av
				}
				tn := t0 + dt*(au*(tup-t0)+av*(tleft-t0)) + 1e-5*(p-1000) + 1e-6*axs
				hn := h0 + dt*0.5*(au*(hup-h0)+av*(hleft-h0))
				if hn < 0 {
					hn = 0
				}
				sys.Compute(30)
				sys.StoreF32(w.tnext+at, tn)
				sys.StoreF32(w.hnext+at, hn)
			}
		}
		w.temp, w.tnext = w.tnext, w.temp
		w.hum, w.hnext = w.hnext, w.hum
	}
}

// Output implements Workload: the forecast temperature field (the
// paper's "Temp." output), sampled.
func (w *WRF) Output(sys *sim.System) []float64 {
	out := make([]float64, 0, w.n*w.n/16)
	for i := 0; i < w.n; i += 4 {
		for j := 0; j < w.n; j += 4 {
			out = append(out, float64(sys.Space.LoadF32(w.temp+w.idx(i, j))))
		}
	}
	return out
}
