package interp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync/atomic"

	"spirvfuzz/internal/spirv"
)

// Image is the rendered result of executing a module over the pixel grid:
// RGBA bytes, row-major. Quantization to 8 bits per channel gives the
// comparison the same tolerance a real framebuffer readback has, so
// numerically-stable modules compare equal across semantics-preserving
// transformations.
type Image struct {
	W, H int
	Pix  []uint8 // 4 bytes per pixel
}

// At returns the RGBA bytes of pixel (x, y).
func (img *Image) At(x, y int) [4]uint8 {
	i := 4 * (y*img.W + x)
	return [4]uint8{img.Pix[i], img.Pix[i+1], img.Pix[i+2], img.Pix[i+3]}
}

// Equal reports whether two images are identical.
func (img *Image) Equal(other *Image) bool {
	return img.W == other.W && img.H == other.H && bytes.Equal(img.Pix, other.Pix)
}

// DiffCount returns the number of differing pixels (for diagnostics).
func (img *Image) DiffCount(other *Image) int {
	if img.W != other.W || img.H != other.H {
		return img.W * img.H
	}
	n := 0
	for p := 0; p < len(img.Pix); p += 4 {
		for k := 0; k < 4; k++ {
			if img.Pix[p+k] != other.Pix[p+k] {
				n++
				break
			}
		}
	}
	return n
}

// Hash returns a short hex digest of the image contents.
func (img *Image) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "%dx%d:", img.W, img.H)
	h.Write(img.Pix)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ASCII renders the image as text (one luminance character per pixel), used
// by examples to visualise bugs like Figure 8's.
func (img *Image) ASCII() string {
	const ramp = " .:-=+*#%@"
	out := make([]byte, 0, (img.W+1)*img.H)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			p := img.At(x, y)
			if p[3] == 0 {
				out = append(out, ' ') // discarded fragment: hole
				continue
			}
			lum := (int(p[0]) + int(p[1]) + int(p[2])) / 3
			out = append(out, ramp[min(lum*len(ramp)/256, len(ramp)-1)])
		}
		out = append(out, '\n')
	}
	return string(out)
}

// treeMode selects the tree-walking reference evaluator for Render instead
// of the compiled register VM. Process-wide and atomic so CLIs can flip it
// once before spinning up worker pools.
var treeMode atomic.Bool

// SetTreeWalker selects the execution engine used by Render: the
// tree-walking reference evaluator (true) or the compiled register VM
// (false, the default).
func SetTreeWalker(on bool) { treeMode.Store(on) }

// TreeWalker reports whether Render currently uses the tree-walking
// reference evaluator.
func TreeWalker() bool { return treeMode.Load() }

// LaneStats and LaneTotals exist only so the end-to-end benchmark's
// interp.lane_groups ledger entry keeps compiling: the register VM renders
// one pixel at a time, so the count is always zero. Both go when the
// benchmark drops that metric.
type LaneStats struct {
	Groups uint64
}

// LaneTotals returns a zero LaneStats; see LaneStats.
func LaneTotals() LaneStats { return LaneStats{} }

// Render executes the module's entry point for every pixel of the grid and
// returns the resulting image. Any invocation fault aborts the render with
// that fault — the analogue of a crash or device loss. OpKill discards the
// fragment, leaving a fully transparent pixel.
//
// By default the module is lowered once by Compile and executed by the
// register VM; SetTreeWalker(true) switches to the tree-walking reference
// evaluator. Both engines implement identical semantics — images are
// byte-equal and faults carry identical messages (pinned by the differential
// tests).
func Render(m *spirv.Module, in Inputs) (*Image, error) {
	if TreeWalker() {
		return RenderTree(m, in)
	}
	p, err := Compile(m)
	if err != nil {
		return nil, err
	}
	return p.Render(in)
}

// RenderTree is the tree-walking reference implementation of Render: it
// re-walks the instruction operands of the module for every pixel. It is
// the executable specification the VM is differentially tested against.
func RenderTree(m *spirv.Module, in Inputs) (*Image, error) {
	w, h := in.W, in.H
	if w == 0 {
		w = DefaultGrid
	}
	if h == 0 {
		h = DefaultGrid
	}
	entry := m.EntryPointFunction()
	if entry == nil {
		return nil, faultf("module has no entry point")
	}
	mc, err := newMachine(m)
	if err != nil {
		return nil, err
	}
	mc.setUniforms(in)
	// Locate the coordinate input and color output variables.
	var coordVar, colorVar spirv.ID
	for _, ins := range m.TypesGlobals {
		if ins.Op != spirv.OpVariable {
			continue
		}
		switch ins.Operands[0] {
		case spirv.StorageInput:
			if coordVar == 0 {
				coordVar = ins.Result
			}
		case spirv.StorageOutput:
			if colorVar == 0 {
				colorVar = ins.Result
			}
		}
	}
	if colorVar == 0 {
		return nil, faultf("module has no Output variable")
	}
	// The output zero depends only on the module, not the pixel: build it
	// once and clone per invocation.
	colorZero, err := ZeroValue(m, mustPointee(m, colorVar))
	if err != nil {
		return nil, err
	}
	img := &Image{W: w, H: h, Pix: make([]uint8, 4*w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if coordVar != 0 {
				cx := (float32(x) + 0.5) / float32(w)
				cy := (float32(y) + 0.5) / float32(h)
				mc.globals[coordVar].V = Vec2(cx, cy)
			}
			mc.globals[colorVar].V = colorZero.Clone()
			mc.steps = 0
			_, err = mc.callFunction(entry, nil)
			p := 4 * (y*w + x)
			if err == errKill {
				// Discarded fragment: transparent black.
				img.Pix[p], img.Pix[p+1], img.Pix[p+2], img.Pix[p+3] = 0, 0, 0, 0
				continue
			}
			if err != nil {
				return nil, err
			}
			writePixel(img.Pix[p:p+4:p+4], mc.globals[colorVar].V)
		}
	}
	return img, nil
}

func mustPointee(m *spirv.Module, varID spirv.ID) spirv.ID {
	def := m.Def(varID)
	_, pointee, _ := m.PointerInfo(def.Type)
	return pointee
}

// quantize clamps a channel to [0,1] and converts to 8 bits. NaN maps to 0.
func quantize(f float32) uint8 {
	if !(f > 0) { // handles NaN and negatives
		return 0
	}
	if f >= 1 {
		return 255
	}
	return uint8(f*255 + 0.5)
}
